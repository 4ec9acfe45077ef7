(** End-to-end mapping pipeline: program -> per-core access phases.

    Compiles a program for a target cache topology under one of the
    paper's schemes, producing the phases the simulation engine
    executes.  The topology used by the *mapper* can differ from the
    machine the code runs on ({!port}), which is how the cross-machine
    experiments (Figures 2 and 14) are built. *)

open Ctam_arch
open Ctam_ir
open Ctam_blocks
open Ctam_deps
open Ctam_cachesim

type scheme =
  | Base            (** original parallel code: contiguous chunks *)
  | Base_plus       (** Base + per-core permutation and tiling *)
  | Local           (** Base distribution + Figure 7 scheduling *)
  | Topology_aware  (** Figure 6 distribution, dependence-only order *)
  | Combined        (** Figure 6 distribution + Figure 7 scheduling *)

(** Display names ("Base", "Base+", "Local", "TopologyAware",
    "Combined"), as the CLI's text output prints them. *)
val scheme_name : scheme -> string

(** Stable lowercase identifiers ("base", "base+", "local",
    "topology-aware", "combined") shared by reports, Chrome traces,
    params files, requests and cache keys. *)
val scheme_id : scheme -> string

(** Inverse of {!scheme_id}, also accepting the aliases "baseplus",
    "topology" and "ta". *)
val scheme_of_id : string -> (scheme, string) result

val all_schemes : scheme list

type params = {
  block_size : int;           (** data block size in bytes (paper: 2 KB) *)
  auto_block : bool;          (** derive block size by the §4.1 rule *)
  balance_threshold : float;
  alpha : float;
  beta : float;
  max_groups : int;           (** compile-time cap; coarser units above *)
  dependence_mode : Distribute.dependence_mode;
      (** §3.5.2: synchronize (default) or cluster dependent groups *)
  tile_edge : int option;
      (** force this Base+ tile edge instead of searching candidates
          around {!Tiling.choose_tile} (the autotuner's knob) *)
}

val default_params : params

(** [validate_params p] is [Ok ()] iff the parameters are usable:
    positive [block_size] / [max_groups] / [balance_threshold] /
    [tile_edge] (when given) and non-negative finite [alpha] / [beta].
    {!compile} calls this and raises [Invalid_argument] with the same
    message, so a degenerate schedule can never be produced silently;
    CLI layers call it directly for a clean error instead of an
    exception. *)
val validate_params : params -> (unit, string) result

type nest_info = {
  nest_name : string;
  num_groups : int;           (** after cycle merging *)
  num_rounds : int;           (** scheduling rounds (1 = no barriers) *)
  dep_edges : int;            (** edges in the group dependence graph *)
  used_block_size : int;
}

(** Structural form of one nest's mapping: per-round, per-core group
    lists (one round when no barriers are needed).  Baselines express
    their chunks as pseudo-groups.  Drives code emission
    ({!Emit_c}) and inspection; the [phases] field is the flattened
    simulator form of the same plan. *)
type nest_plan = {
  plan_nest : Nest.t;
  plan_rounds : Iter_group.t list array list;
  plan_barriers : bool;
}

type compiled = {
  scheme : scheme;
  params : params;            (** the parameters the mapping was built with *)
  map_topo : Topology.t;      (** topology the mapping was built for *)
  machine : Topology.t;       (** machine the phases are shaped for *)
  program : Program.t;
  layout : Layout.t;
  phases : Engine.stream_phase list;
      (** dense arrays under the default compile; generator-backed
          cursors under [~stream:true] (see {!forced_phases}) *)
  infos : nest_info list;
  plans : nest_plan list;
  timings : (string * float) list;
      (** wall-clock seconds spent per compile phase, in {!timing_keys}
          order: the sum of the phase's {!Ctam_telemetry.Span}s, which
          cover the whole compile *)
}

(** The compile-phase names reported in [compiled.timings]:
    ["group"; "distribute"; "schedule"; "trace"]. *)
val timing_keys : string list

(** [compile ?params ?map_topo ?stream scheme ~machine program] maps
    every nest of [program] (parallel nests under [scheme]; serial
    nests run on core 0).  [map_topo] defaults to [machine].  Each pass
    runs in a {!Ctam_telemetry.Span} named after its {!timing_keys}
    entry, collected by the compile itself, so its [timings] never
    leak into a caller's collector; with telemetry on they are also
    observed as [ctam_phase_seconds{phase="mapping.<key>"}].

    Every stream is built as a {!Trace} cursor.  By default each is
    forced into an access array as it is built; with [~stream:true]
    the produced [phases] keep the cursors (serial nests regenerate
    their iterations on demand, Base chunks and schedule groups walk
    their key sets, Base+ chunks keep only their ordered iteration
    lists) — same access sequence, a fraction of the memory. *)
val compile :
  ?params:params ->
  ?map_topo:Topology.t ->
  ?stream:bool ->
  scheme ->
  machine:Topology.t ->
  Program.t ->
  compiled

(** [segments c] reconstructs, for every phase of [c.phases], the
    per-core [(start_access_index, segment_id)] boundaries of the
    iteration groups concatenated into that core's stream — the shape
    [Sink.create ~segments] consumes.  Segment ids are
    unique across the whole run; the returned legend maps each back to
    its [(nest_name, group_id)] (baseline chunks appear as their
    pseudo-groups). *)
val segments :
  compiled -> (int * int) array array list * (int * (string * int)) list

(** Re-target a compiled mapping to a different machine: thread [t] of
    the mapping runs on core [t mod cores(machine)] (threads beyond the
    core count are oversubscribed round-robin, extra cores idle).  This
    reproduces the paper's porting methodology (e.g. the Dunnington
    version running with fewer threads elsewhere). *)
val port : compiled -> machine:Topology.t -> compiled

(** [forced_phases c] materializes every stream of [c.phases] — the
    dense form consumers like the race replayer index directly. *)
val forced_phases : compiled -> Engine.phase list

(** [simulate ?coherence ?probe ?max_cycles ?sample_sets ?memo c]
    builds the machine's hierarchy (with [probe] attached, default
    null) and runs the phases.  [max_cycles] is the engine's
    early-termination budget (see {!Engine.run_streams}); the
    autotuner uses it to cut clearly-losing configurations short.
    [sample_sets] enables constant-bit set sampling (see
    {!Hierarchy.create}); [memo] shares a per-phase memo table across
    runs (see {!Engine.run_streams}). *)
val simulate :
  ?coherence:bool ->
  ?probe:Probe.t ->
  ?max_cycles:int ->
  ?sample_sets:int ->
  ?memo:Memo.t ->
  compiled ->
  Stats.t

(** One-call convenience: compile then simulate.  [stream],
    [sample_sets] and [memo] forward to {!compile} and {!simulate}. *)
val run :
  ?params:params ->
  ?map_topo:Topology.t ->
  ?probe:Probe.t ->
  ?stream:bool ->
  ?sample_sets:int ->
  ?memo:Memo.t ->
  scheme ->
  machine:Topology.t ->
  Program.t ->
  Stats.t

(** Sequential execution of the whole program on one core of the
    machine (the paper's Table 2 baseline). *)
val simulate_serial : machine:Topology.t -> Program.t -> Stats.t

(** The grouping + acyclic dependence DAG used for a nest under
    [params] (exposed for {!Optimal} and the examples). *)
val grouping_for :
  params:params ->
  machine:Topology.t ->
  Program.t ->
  Nest.t ->
  Tags.grouping * Iter_group.t array * Dep_graph.t

(** L1 capacity (bytes) of the machine's first core — the budget the
    block-size rule and Base+ tiling use. *)
val l1_capacity : Topology.t -> int
