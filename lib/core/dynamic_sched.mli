(** Dynamic (runtime) iteration-group scheduling — the comparison the
    paper mentions in §5: processor-affinity dynamic schemes "did not
    generate good results on the Harpertown and Dunnington machines,
    mostly due to the cost of dynamic iteration distribution".

    Cores pull iteration groups from a central queue as they go idle;
    every pull pays a dispatch cost, and placement ignores the cache
    topology entirely.  This gives perfect load balance but no
    affinity, making it the natural foil for the static topology-aware
    mapping. *)

open Ctam_arch
open Ctam_ir
open Ctam_cachesim

(** Cycles charged per queue pull (lock + dispatch). *)
val default_steal_cost : int

(** [run ?params ?steal_cost ~machine program] executes every
    parallel nest with central-queue dynamic scheduling (groups in
    lexicographic order; dependence-carrying nests fall back to
    dependence-level phases with the same per-pull cost), serial nests
    on core 0. *)
val run :
  ?params:Mapping.params ->
  ?steal_cost:int ->
  machine:Topology.t ->
  Program.t ->
  Stats.t
