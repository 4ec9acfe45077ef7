(** The mapping-parameter search space of the autotuner.

    A {!point} bundles every knob the paper reports sensitivity to:
    the scheme itself, the horizontal/vertical reuse weights α/β
    (§4.2), the distribution balance threshold (Figure 6), and the
    Base+ tile-edge override.  Points are {e canonicalized} before
    search — coordinates a scheme ignores (e.g. α/β under Base, the
    tile edge under anything but Base+) are pinned to their defaults —
    so the grid never pays for two simulations that would compile to
    the same mapping. *)

open Ctam_core

type point = {
  scheme : Mapping.scheme;
  alpha : float;
  beta : float;
  balance : float;         (** {!Mapping.params.balance_threshold} *)
  tile_edge : int option;  (** {!Mapping.params.tile_edge} *)
}

(** The point {!Mapping.default_params} encodes for [scheme]
    (default [Combined]) — the baseline every tuning run compares
    against. *)
val default_point : ?scheme:Mapping.scheme -> unit -> point

(** [params_of ?base p] is [base] (default {!Mapping.default_params};
    carries the knobs outside the search space: block size, dependence
    mode, ...) with the point's coordinates substituted. *)
val params_of : ?base:Mapping.params -> point -> Mapping.params

(** Pin the coordinates [p.scheme] ignores to their defaults:
    α/β are kept only by [Local] and [Combined], the balance threshold
    only by [Topology_aware] and [Combined], the tile edge only by
    [Base_plus].  Canonical points compare equal iff they compile to
    the same mapping (given equal base params). *)
val canonical : point -> point

val equal : point -> point -> bool
val pp : point Fmt.t

(** Deterministic single-line rendering used as the point's fragment
    of the persistent cache key. *)
val key_fragment : point -> string

(** JSON image [{scheme, alpha, beta, balance_threshold, tile_edge}] —
    also the schema of the winning-params file [ctamap tune
    --save-params] writes and [ctamap run/compare --params] read. *)
val to_json : point -> Ctam_util.Json.t

(** Inverse of {!to_json}; missing numeric members default to the
    corresponding {!Mapping.default_params} value. *)
val of_json : Ctam_util.Json.t -> (point, string) result

(** One value list per coordinate; the cartesian product (after
    canonicalization and dedup) is the grid. *)
type axes = {
  schemes : Mapping.scheme list;
  alphas : float list;
  betas : float list;
  balances : float list;
  tile_edges : int option list;  (** [None] = the built-in heuristic *)
}

(** All five schemes; α, β ∈ {0.25, 0.5, 1.0}; balance ∈ {0.05, 0.10,
    0.20}; tile ∈ {heuristic, 8, 16}.  Canonicalization collapses the
    405-point product to 43 distinct mappings, and every
    {!default_point} is included. *)
val default_axes : axes

(** The canonical, deduplicated cartesian product, in deterministic
    enumeration order (schemes outermost).  @raise Invalid_argument on
    an empty axis. *)
val grid : axes -> point list

(** Refine-around-incumbent generator: canonical points whose
    coordinates are one step (halving/doubling for α, β and balance;
    neighbouring powers of two for the tile edge) away from [around],
    the incumbent first.  Used to polish a winner after a coarse
    search. *)
val refine : around:point -> point list

(** [axis_candidates axes p] lists, per coordinate in a fixed order,
    the canonical variants of [p] along that coordinate (always
    including [p] itself) — the move sets of coordinate descent. *)
val axis_candidates : axes -> point -> point list list
