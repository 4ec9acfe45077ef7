(** One reproduction function per table/figure of the paper's
    evaluation (§4), each returning its {!Report.t}: the numbers of the
    table, rendered to text by {!Report.render}.

    All experiments run on the scaled simulator machines (see
    {!Ctam_arch.Machines}); [quick] uses quarter-size workloads, which
    preserves every qualitative shape while keeping run times small.
    [scale] overrides the cache-capacity divisor outright (the quick /
    full defaults are 64 / 16) — the bench harness's [--scale] flag.
    Every figure computes its cells with {!grid} and divides them by
    their baseline with {!normalize}.

    The DESIGN.md per-experiment index maps each function to the
    modules it exercises. *)

open Ctam_arch
open Ctam_ir
open Ctam_cachesim

(** {1 The grid} *)

(** A row: its label, machine and program. *)
type row = { name : string; machine : Topology.t; program : Program.t }

(** A column: its label and what it computes on a row. *)
type variant = { label : string; run : Topology.t -> Program.t -> Stats.t }

(** [s] through {!Ctam_core.Mapping.run}, labelled
    {!Ctam_core.Mapping.scheme_name} unless [label] is given. *)
val scheme :
  ?params:Ctam_core.Mapping.params ->
  ?map_topo:Topology.t ->
  ?label:string ->
  Ctam_core.Mapping.scheme ->
  variant

(** Every row with one cell per variant, in order.  [jobs] domains
    (default 1: serially, in the calling domain) share the cells; the
    result does not depend on it. *)
val grid : ?jobs:int -> row list -> variant list -> (row * Stats.t list) list

(** Each cell's cycles, as a float, over the baseline cell's
    ([List.hd] by default). *)
val normalize :
  ?baseline:(Stats.t list -> Stats.t) -> Stats.t list -> float list

(** {1 The experiments} *)

(** Every runner's type.  Runners that have one fixed configuration
    ignore [quick] (table1, fig20) or [scale] (table1, depstats). *)
type runner = ?quick:bool -> ?scale:int -> unit -> Report.t

(** Machine-parameter table (paper Table 1). *)
val table1 : runner

(** Applications and their single-core Dunnington cycles (Table 2). *)
val table2 : runner

(** galgel specialized for each machine, run on every machine,
    normalized to the best version per machine (Figure 2). *)
val fig2 : runner

(** Base / Base+ / TopologyAware on the three commercial machines,
    normalized execution cycles + average miss reductions (Figure 13
    and the miss statistics quoted in §4.2). *)
val fig13 : runner

(** Cross-machine ports: version built for X executed on Y,
    normalized to Y's native version (Figure 14). *)
val fig14 : runner

(** TopologyAware vs Local vs Combined on Dunnington (Figure 15). *)
val fig15 : runner

(** Data-block-size sensitivity on Dunnington (Figure 16). *)
val fig16 : runner

(** Core-count scaling: 12 / 18 / 24 core Dunnington-style machines
    (Figure 17). *)
val fig17 : runner

(** Deeper hierarchies: Dunnington vs Arch-I vs Arch-II (Figure 18). *)
val fig18 : runner

(** Halved cache capacities (Figure 19). *)
val fig19 : runner

(** Level-subset mappings (L1+L2 / L1+L2+L3 / all levels) and the
    optimal search, on Arch-I (Figure 20); always the reduced
    instances. *)
val fig20 : runner

(** alpha/beta sensitivity of the combined scheme (§4.2 text). *)
val alphabeta : runner

(** Compilation-overhead measurement (§4.1 text: +65..94%). *)
val overhead : runner

(** Dependence statistics over the suite (§3.1 text: ~14% of parallel
    loops carry dependences). *)
val dep_stats : runner

(** Central-queue dynamic scheduling vs the static topology-aware
    mapping (the paper's §5 remark). *)
val dynamic : runner

(** The two dependence-handling options of §3.5.2 side by side. *)
val depmode : runner

(** Every experiment, in paper order, as (name, report).  [jobs] runs
    independent experiments across that many domains
    ({!Ctam_util.Parallel.map}; default
    [Parallel.default_domains ()]); each experiment's grid runs
    serially in its domain, and the reports come back in registry
    order either way. *)
val all :
  ?quick:bool -> ?scale:int -> ?jobs:int -> unit -> (string * Report.t) list

(** Look up one experiment runner by name ("fig13", "table2", ...).
    @raise Not_found for unknown names. *)
val by_name : string -> runner

val names : string list
