package repro.tcbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.index.TCTree
import repro.netgen.NetGen

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** One benchmark run of one workload. With tracing off it measures the
  * end-to-end metrics; with tracing on it runs each operation once without
  * and once with a `SparkListener`, then replays the kernels sequentially
  * for the per-layer metrics. Both modes check every output.
  */
final class Bench(spark: SparkSession, args: Main.Args, cores: Int, sessionS: Double) {
  import Bench._

  private val w = args.workload
  private val seed = args.seed
  private var attempted = 0L
  private var failed = 0L

  private def check(what: => String, ok: Boolean): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      System.err.println(s"tcbench: check failed: $what")
    }
  }

  private def checkAll(what: String, m: Replay.Mismatches): Unit = {
    attempted += m.checked
    failed += m.failed
    if (m.failed > 0) System.err.println(s"tcbench: $what: ${m.failed} of ${m.checked} checks failed")
  }

  /** Runs `f`, reporting its wall time on stderr. */
  private def phase[A](name: String)(f: => A): A = {
    val (a, s) = Clock.time(f)
    System.err.println(f"tcbench: $name%-28s $s%8.2f s")
    a
  }

  /** Runs the workload and returns the result line. */
  def run(): String = {
    val m = new Metrics
    // Whole-run figures behind the per-node metrics: printed, not reported.
    val raw = new Metrics
    val samples = ArrayBuffer.empty[(String, Int)]
    val s = setup()
    val outputs =
      if (args.trace) {
        m("netgen.gen_s") = (s.genS, "s")
        m("model.compact_s") = (s.compactS, "s")
        traced(s.nets, s.tcfiSample, m)
      } else {
        m("setup_s") = (s.setupS, "s")
        measure(s.nets, m, raw, samples)
      }
    println("env " + Json.render(env(s.nets, outputs.tree)))
    phase("exactness checks")(exactness(s.nets, outputs, s.tcfiSample))

    val sampleCount = samples.toMap
    m.toSeq.foreach { case (name, (v, unit)) =>
      println(f"$name%-40s $v%16.6f $unit" + sampleCount.get(name).fold("")(n => s"  (n=$n)"))
    }
    raw.toSeq.foreach { case (name, (v, unit)) => println(f"$name%-40s $v%16.6f $unit  (not a metric)") }
    println(f"${"failed_ratio"}%-40s ${failed.toDouble / attempted}%16.6f ratio  (n=$attempted)")
    Json.render(ListMap(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> ListMap(m.toSeq.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) }: _*),
    ))
  }

  private final case class Nets(full: CompactNetwork, sample: CompactNetwork)

  /** The outputs the exactness checks look at. */
  private final case class Outputs(tree: TCTree, tcfi: MiningResult, tcfa: MiningResult)

  /** `tcfiSample` is the warm-up's TCFI on the BFS sample, which the
    * exactness checks compare TCFA with.
    */
  private final case class Setup(nets: Nets, genS: Double, compactS: Double, setupS: Double,
                                 tcfiSample: MiningResult)

  /** Generates and compacts the inputs `SetupReps` times, then warms the
    * JIT, the heap and Spark. `setupS` is the session start + the median
    * of generate + compact + the warm-up.
    */
  private def setup(): Setup = {
    val reps = (1 to SetupReps).map { _ =>
      val (gens, genS) = Clock.time {
        val full = w.generate(seed)
        (full, NetGen.bfsSample(full, SampleEdges, Workload.sampleSeed(seed)))
      }
      val (nets, compactS) = Clock.time(Nets(gens._1.compact, gens._2.compact))
      (gens, nets, genS, compactS)
    }
    check("generation is deterministic in the seed", reps.map(_._1).distinct.size == 1)
    val nets = reps.last._2
    val (tcfiSample, warmS) = Clock.time(warmUp(nets))
    val genS = Stats.median(reps.map(_._3))
    val compactS = Stats.median(reps.map(_._4))
    System.err.println(f"tcbench: session $sessionS%.2f s, generate $genS%.2f s, " +
                       f"compact $compactS%.2f s (medians), warm-up $warmS%.2f s")
    Setup(nets, genS, compactS, sessionS + Stats.median(reps.map(r => r._3 + r._4)) + warmS, tcfiSample)
  }

  /** Runs every timed operation once on its own input, so that the first
    * timed round is not a cold one (a cold build takes ~1.7x a warm one).
    * Returns the TCFI result on the sample.
    */
  private def warmUp(nets: Nets): MiningResult = {
    phase("warm-up build")(TCTree.build(spark, nets.full, MaxDepth))
    val tcfi = phase("warm-up TCFI")(TCFI.run(spark, nets.sample, Alpha, MaxLen))
    tcfi.communities
    phase("warm-up TCFA")(TCFA.run(spark, nets.sample, Alpha, MaxLen).communities)
    tcfi
  }

  private def env(nets: Nets, tree: TCTree): ListMap[String, Any] = {
    val sc = spark.sparkContext
    def table2(c: CompactNetwork) = ListMap(
      "vertices" -> c.n,
      "edges" -> c.nEdges,
      "transactions" -> c.txs.iterator.map(_.length.toLong).sum,
      "items_total" -> c.txs.iterator.flatMap(_.iterator).map(_.length.toLong).sum,
      "items_unique" -> c.items.length,
    )
    ListMap(
      "workload" -> w.name,
      "seed" -> seed,
      "default_seed" -> (seed == Workload.DefaultSeed),
      "trace" -> args.trace,
      "seconds" -> args.seconds,
      "nproc" -> cores,
      "master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "scala" -> scala.util.Properties.versionNumberString,
      "spark" -> spark.version,
      "git_commit" -> sys.props.getOrElse("tcbench.commit", "unknown"),
      "source_digest" -> sys.props.getOrElse("tcbench.digest", "unknown"),
      "max_depth" -> MaxDepth,
      "max_len" -> MaxLen,
      "alpha" -> Alpha,
      "networks" -> ListMap("full" -> table2(nets.full), "sample" -> table2(nets.sample)),
      "tree_nodes_by_depth" -> (1 to tree.maxDepth).map(tree.nodesAtDepth(_).length),
    )
  }

  /** End-to-end metrics, tracing off. A run is a series of rounds, each a
    * build, TCFI and TCFA. A new round starts while `--seconds` have not
    * passed, and at least `MinRounds` run. A full GC precedes every timed
    * operation, so that none pays for the garbage of the one before. After
    * each build, `QbaPerRound` QBA and `QbpPerRound` QBP queries check the
    * new tree (QBA latency is not a metric: see `README.md`). Every round's
    * outputs are compared with the first round's; the exactness checks
    * cover the last.
    *
    * The network, and with it the tree and TCFI's output, changes size
    * with the seed (AMINER: 78k-100k tree nodes), so build time and heap
    * are reported per tree node and TCFI time per truss it finds; for one
    * seed these move exactly as the whole-run figures do. TCFA runs on a
    * sample of fixed size and is reported as wall time.
    */
  private def measure(nets: Nets, m: Metrics, raw: Metrics, samples: ArrayBuffer[(String, Int)]): Outputs = {
    val t0 = System.nanoTime()
    val budget = args.seconds.toDouble
    val items = nets.full.items.toSet
    var patterns: Iterator[Vector[Int]] = null
    def checkQueries(tree: TCTree): Unit = {
      if (patterns == null) patterns = qbpQueries(tree)
      for (_ <- 1 to QbaPerRound)
        check("QBA(S, 0) retrieves every tree node", tree.queryByAlpha(items, Alpha).retrievedNodes == tree.nNodes)
      for (_ <- 1 to QbpPerRound) {
        val q = patterns.next()
        check(s"QBP(${Pattern.key(q)}) retrieves 2^|q| - 1 nodes",
              tree.queryByPattern(q).retrievedNodes == (1 << q.length) - 1)
      }
    }

    var first: (Int, Long, (Long, Long, Long), (Long, Long, Long)) = null
    var last: Outputs = null
    val builds, heaps, tcfis, tcfas = ArrayBuffer.empty[Double]
    while (builds.length < MinRounds || (builds.length < MaxRounds && Clock.secondsSince(t0) < budget)) {
      last = null
      // Heap with the new tree minus heap before the build (both after a
      // full GC, which also clears the garbage of the round before).
      val before = Gc.usedAfterGc()
      val (tree, buildS) = Clock.time(TCTree.build(spark, nets.full, MaxDepth))
      heaps += (Gc.usedAfterGc() - before).toDouble
      checkQueries(tree)
      System.gc()
      val ((tcfi, tcfiCommunities), tcfiS) = Clock.time {
        val r = TCFI.run(spark, nets.full, Alpha, MaxLen); (r, r.communities.size)
      }
      System.gc()
      val ((tcfa, tcfaCommunities), tcfaS) = Clock.time {
        val r = TCFA.run(spark, nets.sample, Alpha, MaxLen); (r, r.communities.size)
      }
      builds += buildS; tcfis += tcfiS; tcfas += tcfaS
      System.err.println(f"tcbench: round ${builds.length}: build $buildS%.3f s, TCFI $tcfiS%.3f s, TCFA $tcfaS%.3f s")
      check("TCFI yields a community per truss", tcfiCommunities >= tcfi.np)
      check("TCFA yields a community per truss", tcfaCommunities >= tcfa.np)
      val got = (tree.nNodes, edgesStored(tree), sizes(tcfi), sizes(tcfa))
      if (first == null) first = got
      check("repeated build gives the same tree", got._1 == first._1 && got._2 == first._2)
      check("repeated TCFI gives the same trusses", got._3 == first._3)
      check("repeated TCFA gives the same trusses", got._4 == first._4)
      last = Outputs(tree, tcfi, tcfa)
    }

    def put(name: String, v: Double, unit: String, n: Int): Unit = {
      m(name) = (v, unit)
      samples += name -> n
    }
    val nodes = last.tree.nNodes.toDouble
    put("build_us_per_node", Stats.median(builds.toSeq) * 1e6 / nodes, "us", builds.length)
    put("index_bytes_per_node", Stats.median(heaps.toSeq) / nodes, "B", heaps.length)
    put("tcfi_us_per_truss", Stats.median(tcfis.toSeq) * 1e6 / last.tcfi.np, "us", tcfis.length)
    put("tcfa_s", Stats.median(tcfas.toSeq), "s", tcfas.length)
    raw("build_s") = (Stats.median(builds.toSeq), "s")
    raw("index_heap_mb") = (Stats.median(heaps.toSeq) / 1e6, "MB")
    raw("tcfi_s") = (Stats.median(tcfis.toSeq), "s")
    last
  }

  /** Endless seeded QBP patterns: round-robin over the tree's layers below
    * the maxDepth cap, a uniform node within each. Latency steps up with
    * the layer (QBP(q) retrieves 2^|q| - 1 nodes); with seven equal layers
    * the median falls mid-layer 4 and p90 within layer 7, never on a step.
    */
  private def qbpQueries(tree: TCTree): Iterator[Vector[Int]] = {
    val layers = (1 to math.min(tree.maxDepth, MaxDepth - 1)).map(tree.nodesAtDepth)
    val rnd = new Random(Workload.querySeed(seed))
    Iterator.from(0).map { i =>
      val layer = layers(i % layers.length)
      layer(rnd.nextInt(layer.length)).pattern
    }
  }

  /** Per-layer metrics, tracing on. */
  private def traced(nets: Nets, tcfiSample: MiningResult, m: Metrics): Outputs = {
    val sc = spark.sparkContext
    val counters = new SparkCounters(sc, cores)

    /** Runs `f` untraced, then traced; returns the traced result, its wall
      * time and its Spark job wall time.
      */
    def op[A](name: String)(f: => A): (A, Double, Double) = {
      val (_, untracedS) = Clock.time(f)
      sc.addSparkListener(counters)
      counters.reset()
      val (gcMs0, gcN0) = Gc.snapshot()
      val (a, wallS) = Clock.time(f)
      val (gcMs1, gcN1) = Gc.snapshot()
      counters.record(m, name)
      sc.removeSparkListener(counters)
      m(s"jvm.gc_s.$name") = ((gcMs1 - gcMs0) / 1e3, "s")
      m(s"jvm.gc_count.$name") = ((gcN1 - gcN0).toDouble, "count")
      m(s"trace.overhead.$name") = (wallS / untracedS, "ratio")
      (a, wallS, counters.jobWallS)
    }

    val (tree, buildS, buildJobsS) = op("tree")(TCTree.build(spark, nets.full, MaxDepth))
    val deepJobsS = counters.laterJobsWallS
    val (tcfi, tcfiS, tcfiJobsS) = op("tcfi") {
      val r = TCFI.run(spark, nets.full, Alpha, MaxLen); r.communities; r
    }
    val (tcfa, tcfaS, tcfaJobsS) = op("tcfa") {
      val r = TCFA.run(spark, nets.sample, Alpha, MaxLen); r.communities; r
    }

    // Query layer: QBA(S, 0) latency against the Equation 1 reconstruction
    // (`TCNode.trussAt`) it performs for every retrieved node.
    val items = nets.full.items.toSet
    val (gcMs0, gcN0) = Gc.snapshot()
    val qbaS = Stats.median((1 to TracedQba).map { _ =>
      val (r, s) = Clock.time(tree.queryByAlpha(items, Alpha))
      check("QBA(S, 0) retrieves every tree node", r.retrievedNodes == tree.nNodes)
      s
    })
    val (gcMs1, gcN1) = Gc.snapshot()
    m("jvm.gc_s.qba") = ((gcMs1 - gcMs0) / 1e3, "s")
    m("jvm.gc_count.qba") = ((gcN1 - gcN0).toDouble, "count")
    val nodes = tree.nodes
    val trussAtS = Stats.median((1 to TracedQba).map(_ => Clock.time(nodes.foreach(_.trussAt(Alpha)))._2))
    val qbp = qbpQueries(tree).take(TracedQbp).map { q =>
      val (r, s) = Clock.time(tree.queryByPattern(q))
      check(s"QBP(${Pattern.key(q)}) retrieves 2^|q| - 1 nodes", r.retrievedNodes == (1 << q.length) - 1)
      (r.retrievedNodes.toDouble, s * 1e6)
    }.toSeq
    m("query.rn") = (tree.nNodes.toDouble, "count")
    m("query.trussat_s") = (trussAtS, "s")
    m("query.self_s") = (qbaS - trussAtS, "s")
    m("query.us_per_node") = (qbaS * 1e6 / tree.nNodes, "us")
    m("query.qbp_rn_mean") = (qbp.map(_._1).sum / qbp.length, "count")
    m("query.qbp_us_p50") = (Stats.quantile(qbp.map(_._2), 0.5), "us")
    m("query.qbp_us_p90") = (Stats.quantile(qbp.map(_._2), 0.9), "us")

    val tr = Replay.tree(nets.full, tree, MaxDepth)
    checkAll("TC-Tree replay", tr.check)
    tr.tally.record(m, "tree")
    m("tctree.nodes") = (tree.nNodes.toDouble, "count")
    m("tctree.depth") = (tree.maxDepth.toDouble, "count")
    m("tctree.nodes_at_cap") = (tree.nodesAtDepth(MaxDepth).length.toDouble, "count")
    m("tctree.sibling_pairs") = (tr.siblingPairs.toDouble, "count")
    m("tctree.tasks_shipped") = (tr.tasksShipped.toDouble, "count")
    m("tctree.edges_shipped") = (tr.edgesShipped.toDouble, "count")
    m("tctree.node_yield") = ((tree.nNodes - tree.root.children.length).toDouble / tr.tasksShipped, "ratio")
    m("tctree.edges_stored") = (edgesStored(tree).toDouble, "count")
    m("tctree.intersect_s") = (tr.intersectS, "s")
    m("tctree.driver_s") = (buildS - buildJobsS, "s")
    m("tctree.deep_jobs_s") = (deepJobsS, "s")

    val replays = for ((name, result, net, wallS, jobsS, intersect) <- Seq(
           ("tcfi", tcfi, nets.full, tcfiS, tcfiJobsS, true),
           ("tcfa", tcfa, nets.sample, tcfaS, tcfaJobsS, false))) yield {
      val r = Replay.miner(net, result, Alpha, MaxLen, intersect)
      checkAll(s"${name.toUpperCase} replay", r.check)
      r.tally.record(m, name)
      m(s"localtruss.cc_s.$name") = (r.ccS, "s")
      m(s"pattern.join_s.$name") = (r.joinS, "s")
      m(s"pattern.candidates.$name") = (r.candidates.toDouble, "count")
      m(s"miner.levels.$name") = (r.levels.toDouble, "count")
      m(s"miner.mptd_calls.$name") = (r.mptdCalls.toDouble, "count")
      m(s"miner.at_max_len.$name") = (r.atMaxLen.toDouble, "count")
      m(s"miner.driver_s.$name") = (wallS - jobsS, "s")
      if (intersect) {
        m(s"miner.pruned.$name") = (r.pruned.toDouble, "count")
        m(s"miner.prune_ratio.$name") = (r.pruned.toDouble / r.candidates, "ratio")
        m(s"miner.intersect_s.$name") = (r.intersectS, "s")
      }
      r
    }

    // Paper claim (iv): on the same network, TCFI peels far smaller
    // subgraphs than TCFA. TCFA runs on the sample, so TCFI is replayed there.
    val tcfiOnSample = Replay.miner(nets.sample, tcfiSample, Alpha, MaxLen, useIntersection = true)
    checkAll("TCFI replay on the sample", tcfiOnSample.check)
    val tcfaTally = replays(1).tally
    m("localtruss.peel_in_mean.tcfa_over_tcfi") = (tcfaTally.peelInMean / tcfiOnSample.tally.peelInMean, "ratio")
    m("localtruss.peel_in_max.tcfa_over_tcfi") =
      (tcfaTally.peelInMax.toDouble / tcfiOnSample.tally.peelInMax, "ratio")
    m("localtruss.induce_in_mean.tcfa_over_tcfi") =
      (tcfaTally.induceInMean / tcfiOnSample.tally.induceInMean, "ratio")
    Outputs(tree, tcfi, tcfa)
  }

  /** Cross-path checks on one set of outputs, run in both modes. */
  private def exactness(nets: Nets, o: Outputs, tcfiSample: MiningResult): Unit = {
    val tree = o.tree
    val nodes = tree.nodes
    val rnd = new Random(Workload.querySeed(seed))
    for (_ <- 1 to DecomposeSamples) {
      val n = nodes(rnd.nextInt(nodes.length))
      val f = MinerOps.freqFn(nets.full, n.pattern)
      val direct = LocalTruss.decompose(LocalTruss.themeInduce(nets.full.edgeList, f), f)
      check(s"stored decomposition of ${Pattern.key(n.pattern)} equals a direct decompose",
            Replay.sameDecomposition(n.decomp, direct))
    }
    val items = nets.full.items.toSet
    check("QBA(S, alpha* + 0.1) is empty",
          tree.queryByAlpha(items, tree.alphaStar + 0.1).retrievedNodes == 0)

    val fromTree = nodes.iterator.filter(_.pattern.length <= MaxLen)
      .map(n => n.pattern -> n.trussAt(Alpha).sorted).toMap
    check("TCFI(0) equals QBA(S, 0) on patterns up to maxLen", fromTree == edgeSets(o.tcfi))

    check("TCFA equals TCFI on the sample (NP/NV/NE)", sizes(o.tcfa) == sizes(tcfiSample))
    check("TCFA equals TCFI on the sample (truss edges)", edgeSets(o.tcfa) == edgeSets(tcfiSample))

    if (seed == Workload.DefaultSeed) {
      val got = Fingerprint(tree.nNodes, o.tcfi.np, o.tcfi.ne, o.tcfa.np, o.tcfa.ne)
      check(s"default-seed fingerprint $got equals ${w.fingerprint}", got == w.fingerprint)
    }
  }
}

object Bench {
  /** TC-Tree depth cap, as in the Table 3 and Figure 5 suites. */
  val MaxDepth = 8
  /** Miner pattern-length cap (the miners' default). */
  val MaxLen = 6
  /** α = 0, the worst case of Figures 3 and 4. */
  val Alpha = 0.0
  /** Edges in the BFS sample TCFA runs on. */
  val SampleEdges = 2000

  val SetupReps = 3
  val MinRounds = 2
  val MaxRounds = 10
  val QbaPerRound = 2
  val QbpPerRound = 1000
  val TracedQba = 5
  val TracedQbp = 2000
  val DecomposeSamples = 100

  private def sizes(r: MiningResult): (Long, Long, Long) = (r.np, r.nv, r.ne)

  private def edgeSets(r: MiningResult): Map[Vector[Int], Vector[(Int, Int)]] =
    r.trusses.map { case (p, t) => p -> t.edges }

  private def edgesStored(t: TCTree): Long = t.nodes.iterator.map(_.decomp.nEdgesTotal.toLong).sum
}
