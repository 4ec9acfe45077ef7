(** Reference "Optimal" mapping (paper §4.2, Figure 20).

    The paper obtains the optimal iteration-group-to-core mapping with
    an ILP solver (taking up to 23 hours).  Here the same objective —
    minimal simulated execution cycles — is optimized exactly by
    exhaustive enumeration when the instance is small, and otherwise by
    steepest-descent local search over single-group relocations and
    swaps, seeded with the Topology-Aware assignment.  Local search
    can only improve on Topology-Aware, so the result is a valid
    "at least this much headroom" bound, which is how the paper uses
    the optimal column. *)

open Ctam_arch
open Ctam_ir
open Ctam_cachesim

type result = {
  stats : Stats.t;
  evaluations : int;   (** simulator runs spent *)
  exact : bool;        (** true when exhaustively enumerated *)
}

(** [search ?params ?budget ?exhaustive_limit ~machine program]
    optimizes the mapping of the first parallel nest (the program must
    have exactly one parallel nest).  [budget] caps simulator
    evaluations for local search (default 200); instances with at most
    [exhaustive_limit] assignments (default 20_000) are enumerated
    exactly.
    @raise Invalid_argument if the program has no parallel nest. *)
val search :
  ?params:Mapping.params ->
  ?budget:int ->
  ?exhaustive_limit:int ->
  machine:Topology.t ->
  Program.t ->
  result
