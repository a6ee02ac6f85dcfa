package repro

import org.duckdb.DuckDBConnection
import repro.netgen.GenNet

import java.sql.DriverManager

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(got, sql, tables)`` loads the named local ``tables``
  * into an in-process DuckDB (via JDBC), runs ``sql`` on them and asserts
  * that its rows are the rows of ``got``, in any order. A Double on either
  * side is compared within 1e-9; every other value exactly. This catches
  * wrong results from a rewritten kernel — "it ran" is not "it is correct".
  *
  * Alias every SQL output column with the name ``got`` uses; names compare
  * case-insensitively, column order does not matter. ``tables(g)`` and
  * ``freqsSql(p)`` give a database network and its frequencies in SQL, for
  * the suites that check the kernels against the paper's definitions.
  */
object Oracle {

  /** A local table: column names, and rows as tuples of Int, Long, Double
    * or String values in column order (tuples, not `Seq`s, so that an Int
    * next to a Double is not widened). Column types follow the first row;
    * the columns of an empty table are INTEGER.
    */
  final case class Table(columns: Seq[String], rows: Seq[Product]) {
    def cells: Seq[Seq[Any]] = rows.map(_.productIterator.toSeq)
  }

  private def sqlType(x: Any): String = x match {
    case _: Int    => "INTEGER"
    case _: Long   => "BIGINT"
    case _: Double => "DOUBLE"
    case _         => "VARCHAR"
  }

  /** Integral values as Long, fractional ones as Double, the rest as text. */
  private def value(x: Any): Any = x match {
    case null                                                    => null
    case d @ (_: Double | _: Float | _: java.math.BigDecimal)    => d.asInstanceOf[Number].doubleValue
    case b: java.math.BigInteger                                 => b.longValueExact
    case n: Number                                               => n.longValue
    case s                                                       => s.toString
  }

  private def same(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Number) => math.abs(x - y.doubleValue) <= 1e-9
    case (x: Number, y: Double) => math.abs(x.doubleValue - y) <= 1e-9
    case _                      => a == b
  }

  /** Columns in name order, values normalised, rows sorted by their exact
    * cells first so that rows matched within tolerance line up.
    */
  private def canon(columns: Seq[String], rows: Seq[Seq[Any]]): Seq[Seq[Any]] = {
    val order = columns.indices.sortBy(columns(_).toLowerCase)
    rows
      .map(r => order.map(i => value(r(i))))
      .sortBy { r =>
        val (fractional, exact) = r.partition(_.isInstanceOf[Double])
        (exact.mkString("|"), fractional.map(d => f"${d.asInstanceOf[Double]}%.6f").mkString("|"))
      }
  }

  /** A raw database network as tables: `vertices(v)`, `edges(src, dst)` as
    * given, `transactions(v, t)` with one row per transaction (an empty one
    * included) and `items(v, t, item)` with one row per item occurrence.
    */
  def tables(g: GenNet): Seq[(String, Table)] = Seq(
    "vertices" -> Table(Seq("v"), (0 until g.n).map(Tuple1(_))),
    "edges" -> Table(Seq("src", "dst"), g.edges),
    "transactions" -> Table(Seq("v", "t"),
      for (v <- 0 until g.n; t <- g.txs(v).indices) yield (v, t)),
    "items" -> Table(Seq("v", "t", "item"),
      for (v <- 0 until g.n; (tx, t) <- g.txs(v).zipWithIndex; item <- tx) yield (v, t, item)),
  )

  /** A `WITH` clause `freqs(v, freq)` over `tables`: f_v(p) of Section 3.1,
    * the share of v's transactions containing every item of p; 0 on an
    * empty database.
    */
  def freqsSql(p: Vector[Int]): String = {
    val inP = if (p.isEmpty) "FALSE" else s"item IN (${p.mkString(", ")})"
    s"""freqs AS (
       |  SELECT vx.v AS v,
       |         CASE WHEN COUNT(tx.t) = 0 THEN 0.0
       |              ELSE CAST(SUM(CASE WHEN COALESCE(h.hits, 0) = ${p.distinct.length} THEN 1 ELSE 0 END) AS DOUBLE)
       |                   / COUNT(tx.t) END AS freq
       |  FROM vertices vx
       |  LEFT JOIN transactions tx ON tx.v = vx.v
       |  LEFT JOIN (SELECT v, t, COUNT(DISTINCT item) AS hits FROM items WHERE $inP GROUP BY v, t) h
       |         ON h.v = tx.v AND h.t = tx.t
       |  GROUP BY vx.v)""".stripMargin
  }

  def assertEquivalent(got: Table, sql: String, tables: (String, Table)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, t) <- tables) {
        val types = t.cells.headOption.fold(t.columns.map(_ => "INTEGER"))(_.map(sqlType))
        val cols = t.columns.lazyZip(types).map((c, ty) => s"$c $ty")
        conn.createStatement.execute(s"CREATE TABLE $name (${cols.mkString(", ")})")
        val app = conn.unwrap(classOf[DuckDBConnection]).createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
        for (r <- t.cells) {
          app.beginRow()
          r.foreach {
            case i: Int    => app.append(i)
            case l: Long   => app.append(l)
            case d: Double => app.append(d)
            case x         => app.append(x.toString)
          }
          app.endRow()
        }
        app.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => dCols.indices.map(i => r.getObject(i + 1)))
        .toSeq
      require(
        dCols.map(_.toLowerCase).sorted == got.columns.map(_.toLowerCase).sorted,
        s"column mismatch: got=${got.columns.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val g = canon(got.columns, got.cells)
      val e = canon(dCols, dRows)
      val rowsMatch = g.length == e.length &&
        g.lazyZip(e).forall((a, b) => a.lazyZip(b).forall(same))
      require(rowsMatch,
        s"result mismatch (${g.size} vs ${e.size} rows):\n" +
        s"  first got-only:  ${g.diff(e).take(3)}\n" +
        s"  first duck-only: ${e.diff(g).take(3)}"
      )
    } finally conn.close()
  }
}
