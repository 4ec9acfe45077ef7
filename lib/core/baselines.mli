(** The paper's comparison points (§4.1).

    - [Base]: the original parallel code — iterations split into
      contiguous equal chunks (lexicographic order), each core runs its
      chunk in program order.
    - [Base+]: the same chunks, but each core's iterations are
      reordered by locality-driven loop permutation plus iteration-
      space tiling — the state-of-the-art intra-core locality scheme.
    - [Local]: contiguous chunks as in Base, but the iteration groups
      of each chunk are scheduled with the Figure 7 algorithm —
      isolating the benefit of local reorganization.

    The two chunkings round differently.  Over [T] iterations and [n]
    cores, Base's chunk [c] starts at rank [ceil (c * T / n)]
    ({!block_partition}), Local's at rank [floor (c * T / n)]
    ({!default_assignment}); when [n] does not divide [T] their chunk
    sizes differ by one iteration at some boundaries.  Unifying them
    would change plans.

    Base, Base+ and Topology-Aware execute the same iteration sets in
    parallel; only partitioning and order differ (as in the paper). *)

open Ctam_poly
open Ctam_arch
open Ctam_ir
open Ctam_blocks

(** Base's contiguous partition of a nest's iterations over [n] cores:
    in lexicographic order, chunk [c] holds the iterations of rank
    [ceil (c * T / n)] up to [ceil ((c + 1) * T / n)] (exclusive), so
    chunk sizes differ by at most one.  The sets share the encoder of
    the nest's domain. *)
val block_partition : n:int -> Nest.t -> Iterset.t array

(** Restrict groups to the default per-core chunks: each core receives
    the nonempty intersections of every group with its chunk (split
    parts keep their origin id, so the dependence graph still applies).
    Chunk [c] starts at rank [floor (c * T / n)] of the groups' union.
    This is the input Local feeds to the scheduler. *)
val default_assignment :
  topo:Topology.t -> Iter_group.t array -> Iter_group.t list array
