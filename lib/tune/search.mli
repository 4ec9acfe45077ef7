(** Search strategies over {!Space} with {!Eval} as the cost oracle.

    All three strategies evaluate batches of points through
    {!Ctam_util.Parallel.map}; because every evaluation is pure and
    batches keep their input order, a run's trial list, winner and
    report are byte-identical at any job count.  The persistent
    {!Cache} (when enabled) is consulted and updated serially around
    each parallel batch, so it too cannot perturb the result — only
    the [simulations] / [cache_hits] counters reflect its state.

    Every strategy evaluates the scheme's baseline point
    ({!Space.default_point}) first and uncapped, and the reported best
    is the minimum over baseline and all uncapped trials — tuning can
    therefore never return a configuration worse than the default. *)

open Ctam_arch
open Ctam_ir
open Ctam_core

type strategy =
  | Grid  (** exhaustive over {!Space.grid} *)
  | Descent
      (** coordinate descent from the baseline along
          {!Space.axis_candidates}, then one {!Space.refine} polish *)
  | Halving
      (** successive halving: the full grid under geometrically
          growing cycle caps, survivors re-run uncapped *)

val strategy_id : strategy -> string
val strategy_of_id : string -> (strategy, string) result

type settings = {
  strategy : strategy;
  axes : Space.axes;
  budget : int option;
      (** max points evaluated beyond the baseline; [None] =
          unlimited.  The baseline is always evaluated even if this
          is 0.  A persistent-cache hit costs no simulation but still
          consumes budget, so a budgeted search examines the same
          points — and returns the same result — on a cold and on a
          warm cache. *)
  cache_dir : string option;  (** [None] disables the persistent cache *)
  jobs : int option;          (** [Parallel.map ?domains] *)
  base_params : Mapping.params;
  verify : bool;  (** legality-check the winning mapping *)
  stream : bool;  (** compile generator-backed phases *)
  sample_sets : int;
      (** simulate 1/N of the cache sets (1 = exact).  Approximate:
          the factor becomes part of the persistent-cache key, so
          sampled and exact results never mix. *)
  memo : bool;
      (** share an engine phase-memo table across the run's
          evaluations.  Exact (replays are byte-identical), so the
          result and report are unchanged — only faster. *)
}

val default_settings : settings

(** One evaluated point.  [rung] is the halving cap the evaluation ran
    under ([None] = uncapped); capped trials never become the best. *)
type trial = {
  point : Space.point;
  outcome : Eval.outcome;
  rung : int option;
  from_cache : bool;
}

type result = {
  program_name : string;
  machine_name : string;
  strategy_used : strategy;
  baseline : trial;
  best : trial;
  trials : trial list;  (** evaluation order, baseline first *)
  simulations : int;    (** evaluations actually simulated *)
  cache_hits : int;
  verify_ok : bool option;  (** [Some] iff [settings.verify] *)
}

(** [run settings ~machine ~program_name program] tunes [program] on
    [machine].  Deterministic for fixed settings, program and machine:
    independent of job count, cache temperature and wall clock. *)
val run :
  settings ->
  machine:Topology.t ->
  program_name:string ->
  Program.t ->
  result

(** Speedup of best over baseline in cycles ([baseline / best];
    1.0 = no improvement found). *)
val improvement : result -> float

(** The deterministic tune report ([ctam_tune_version = 1]): settings
    echo, per-trial records, baseline/best outcomes and the
    tuned-vs-default ratio.  Contains no timestamps or host state, so
    reports from identical runs compare byte-equal and
    {!Ctam_exp.Report_diff} can diff them across commits. *)
val to_json : result -> Ctam_util.Json.t

(** The winning point in the [--params] file schema
    ({!Space.to_json}). *)
val best_params_json : result -> Ctam_util.Json.t

(** Human-readable summary table of the run. *)
val render : result -> string
