(** Structured JSON run reports — the machine-readable face of the
    observability layer.

    [profile] compiles and simulates a program with a {!Sink} attached
    (counter matrices with per-group attribution, and the
    horizontal/vertical reuse split) and assembles everything —
    topology, scheme, params, per-nest mapping info, compile-phase
    timings, aggregate stats, per-core × per-level counters, per-group
    miss attribution, reuse and set-conflict histograms — into one JSON
    object ([ctam_report_version] 1).  [ctamap run --json/--profile]
    and the bench harness are thin wrappers over this module. *)

open Ctam_arch
open Ctam_ir
open Ctam_cachesim
open Ctam_core

(** Everything one observed run produced.  [report] is the JSON
    rendering of the other fields. *)
type profile = {
  compiled : Mapping.compiled;
  stats : Stats.t;
  sink : Sink.t;
      (** the run's only probe; it keeps a timeline when
          [profile ?timeline_window] was given *)
  legend : (int * (string * int)) list;
      (** segment id -> (nest name, group id) *)
  timings : (string * float) list;
      (** the report's [timings_seconds]: the given frontend timings,
          the compile passes, then ["simulate"] *)
  spans : (string * float) list;
      (** the ["compile"] and ["simulate"] spans, each step whole *)
  verify : Ctam_verify.Verify.report option;
      (** legality-checker result when [profile ~check:true] *)
  report : Ctam_util.Json.t;
}

(** [profile ?params ?frontend_timings ?check scheme ~machine program]
    compiles, attaches a {!Sink}, simulates, and builds the report,
    timing each step with a {!Ctam_telemetry.Span}.  [frontend_timings] lets the caller prepend
    e.g. [("parse", s); ("lower", s)] measured while loading the
    source.  With telemetry on, the frontend timings and the simulation
    are observed as [ctam_phase_seconds{phase}] (["frontend.<key>"],
    ["simulate"]), with the simulation's allocation.
    [check] (default false) additionally runs the {!Ctam_verify}
    legality checker on the compiled mapping; the result lands in
    [verify] and as a ["verify"] member of the JSON report.
    [timeline_window] gives the sink a timeline with that window width
    and embeds its windowed series as a ["timeline"] member
    ({!Trace_export.series_json}).

    [stream] compiles generator-backed phases; [sample_sets] runs a
    set-sampled hierarchy (the report's ["stats"] member is
    extrapolated, but sampled per-level probe members describe only
    the simulated subset).  Both land in the report's ["simulation"]
    member.  The profiler always attaches a probe, which would make an
    engine phase memo inert, so it attaches none — memo wins show up
    in unobserved runs such as tune sweeps. *)
val profile :
  ?params:Mapping.params ->
  ?timeline_window:int ->
  ?frontend_timings:(string * float) list ->
  ?check:bool ->
  ?stream:bool ->
  ?sample_sets:int ->
  Mapping.scheme ->
  machine:Topology.t ->
  Program.t ->
  profile

(** JSON image of a topology (name, clock, memory latency, caches). *)
val topology_json : Topology.t -> Ctam_util.Json.t

(** JSON image of one nest's mapping (name, groups, rounds, dependence
    edges, block size), as in the report's ["nests"] member. *)
val nest_json : Mapping.nest_info -> Ctam_util.Json.t

(** JSON image of a reuse histogram: total/cold plus the non-empty
    buckets as [{lo, hi, count}] (hi exclusive). *)
val histogram_json : Reuse.histogram -> Ctam_util.Json.t

(** [write_file path json] writes the pretty-printed JSON plus a
    trailing newline. *)
val write_file : string -> Ctam_util.Json.t -> unit

(** One bench-trajectory object per scheme for [machine]: every suite
    workload's cycles / memory accesses / per-level stats under that
    scheme, with cycles normalized to the Base scheme of the same
    machine, and a geomean summary.  [quick] uses quarter-size
    workloads.  The objects are emitted by [bench/main.exe --json] one
    per line, so trajectories diff cleanly across PRs.

    The stats come from {!Experiments.grid} (workloads x schemes) and
    the ratios from {!Experiments.normalize}.  [jobs] shares the grid's
    cells among that many domains (default
    [Parallel.default_domains ()]).  Each cell builds its own
    hierarchy, and the objects are assembled from the cells in order,
    so the result is byte-identical to [~jobs:1]. *)
val bench_sweep :
  ?jobs:int -> quick:bool -> machine:Topology.t -> unit -> Ctam_util.Json.t list
