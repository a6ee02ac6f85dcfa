package repro.tcbench

import repro.netgen.{GenNet, NetGen}

/** Expected sizes on the default seed, the numbers EXPERIMENTS.md reports. */
final case class Fingerprint(treeNodes: Int, tcfiNp: Long, tcfiNe: Long, tcfaNp: Long, tcfaNe: Long)

/** One benchmark workload: a generated database network on which every run
  * builds the TC-Tree, queries it, and mines it with TCFI (full network)
  * and TCFA (its BFS edge sample).
  *
  * All inputs derive from the workload seed `s`: the network from `s` (SYN:
  * `s + 4`), the BFS samples from `s + 10`, the sampled tree nodes and QBP
  * patterns from `s + 18`. The default seed 13 therefore reproduces the
  * `NetGen` defaults (AMINER 13, SYN 17, BFS 23, QBP 31).
  */
final case class Workload(name: String, generate: Long => GenNet, fingerprint: Fingerprint)

object Workload {
  val DefaultSeed = 13L

  val all: Seq[Workload] = Seq(
    // Co-author cliques over a 400-keyword vocabulary: the largest candidate
    // space (88k tree nodes), ~160k tiny per-pair build tasks.
    Workload("aminer", s => NetGen.aminerLike(seed = s),
             Fingerprint(88148, 87085L, 556601L, 18331L, 116977L)),
    // Preferential attachment with triad closure: skewed degrees, half the
    // build tasks of aminer but ~2x the edge tuples shipped.
    Workload("syn", s => NetGen.synLike(seed = s + 4),
             Fingerprint(40865, 40008L, 316705L, 6267L, 40108L)),
  )

  val byName: Map[String, Workload] = all.map(w => w.name -> w).toMap

  def sampleSeed(seed: Long): Long = seed + 10
  def querySeed(seed: Long): Long = seed + 18
}
