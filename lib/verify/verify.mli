(** Mapping legality checker: end-to-end validation of a compiled
    mapping (the [ctamap check] backend).

    The paper's scheme is only correct if distribution assigns every
    iteration of a nest to exactly one group/core and scheduling never
    orders a dependence backwards across phases (§3–4).  This module
    verifies four invariants, each implemented independently of the
    code it checks:

    {ol
    {- {b coverage / disjointness} — per nest, the union of the plan's
       group iteration sets equals the nest's {!Ctam_poly.Domain} and
       groups are pairwise disjoint ({!Ctam_poly.Iterset} algebra);}
    {- {b codegen faithfulness} — {!Ctam_poly.Codegen.decompose} boxes
       re-enumerate exactly each group's points (differential against
       the set's own enumeration);}
    {- {b dependence legality and race freedom} — every edge of the
       recomputed {!Ctam_deps.Group_deps} graph is ordered by a phase
       boundary (or by sequential order on a single core), and the
       trace-level {!Race} detector finds no same-address write
       conflict between cores inside one phase;}
    {- {b topology well-formedness} — every core reaches at most one
       cache per level, and sharing domains partition the cores at each
       level (the sharing relation is symmetric by construction:
       {!Ctam_arch.Topology.make} rejects duplicate cache names).}} *)

open Ctam_arch
open Ctam_core

(** One violated invariant occurrence. *)
type issue = {
  invariant : string;  (** "coverage" | "disjointness" | "codegen"
                           | "dependence" | "race" | "topology" *)
  detail : string;     (** human-readable diagnostic *)
}

(** Result of a {!check} run: the issues found plus how much work the
    checker actually did (so a silently-degenerate check is visible). *)
type report = {
  issues : issue list;
  nests_checked : int;
  groups_checked : int;
  points_checked : int;   (** iteration points re-enumerated *)
  edges_checked : int;    (** dependence edges validated *)
  phases_checked : int;   (** phases scanned for races *)
}

val ok : report -> bool

(** Topology well-formedness alone (also usable on parsed machine
    description files before any compilation). *)
val check_topology : Topology.t -> issue list

(** [check compiled] runs all four invariant checks on a compiled
    mapping, using [compiled.params] to recompute the reference
    grouping and dependence graph. *)
val check : Mapping.compiled -> report

(** JSON image: [{ok, issues: [{invariant, detail}], ...counters}]. *)
val to_json : report -> Ctam_util.Json.t

val pp_report : report Fmt.t
