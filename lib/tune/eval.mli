(** The autotuner's cost oracle: compile a space point, simulate it on
    the machine's cache hierarchy, score by total cycles with a
    memory-access tiebreak.

    Evaluations are pure (every call builds its own hierarchy), so the
    search strategies fan them out through {!Ctam_util.Parallel.map}
    and the results are independent of the job count. *)

open Ctam_arch
open Ctam_ir
open Ctam_cachesim
open Ctam_core

type outcome = {
  cycles : int;
  mem_accesses : int;
  total_accesses : int;
  capped : bool;
      (** the run hit its [max_cycles] budget; [cycles] is a lower
          bound on the true cost and the point is a proven loser at
          that budget *)
}

(** Lexicographic score, smaller is better: cycles first, off-chip
    memory accesses as the tiebreak. *)
val score : outcome -> int * int

val compare_outcome : outcome -> outcome -> int

(** [evaluate ?base_params ?max_cycles ?stream ?sample_sets ?memo
    ~machine program point] compiles [program] under
    [Space.params_of ?base:base_params point] and simulates it.
    [max_cycles] is the successive-halving budget: the engine stops
    once every core's clock passed it and the outcome comes back
    [capped].  [stream] compiles generator-backed phases,
    [sample_sets] runs a set-sampled hierarchy, and [memo] shares a
    phase-memo table across evaluations (see {!Mapping.simulate}); the
    memo is exact, so memoized outcomes stay byte-identical, while
    sampling is approximate and must be reflected in the result-cache
    key ({!Cache.key}). *)
val evaluate :
  ?base_params:Mapping.params ->
  ?max_cycles:int ->
  ?stream:bool ->
  ?sample_sets:int ->
  ?memo:Memo.t ->
  machine:Topology.t ->
  Program.t ->
  Space.point ->
  outcome

val outcome_to_json : outcome -> Ctam_util.Json.t
val outcome_of_json : Ctam_util.Json.t -> (outcome, string) result
