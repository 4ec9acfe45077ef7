open Ctam_core
module J = Ctam_util.Json

type outcome = {
  cycles : int;
  mem_accesses : int;
  total_accesses : int;
  capped : bool;
}

let score o = (o.cycles, o.mem_accesses)
let compare_outcome a b = compare (score a) (score b)

let evaluate ?base_params ?max_cycles ?stream ?sample_sets ?memo ~machine
    program point =
  let params = Space.params_of ?base:base_params point in
  let compiled =
    Mapping.compile ~params ?stream point.Space.scheme ~machine program
  in
  let stats = Mapping.simulate ?max_cycles ?sample_sets ?memo compiled in
  {
    cycles = stats.Ctam_cachesim.Stats.cycles;
    mem_accesses = stats.Ctam_cachesim.Stats.mem_accesses;
    total_accesses = stats.Ctam_cachesim.Stats.total_accesses;
    capped =
      (match max_cycles with
      | Some cap -> stats.Ctam_cachesim.Stats.cycles >= cap
      | None -> false);
  }

let outcome_to_json o =
  J.Obj
    [
      ("cycles", J.Int o.cycles);
      ("mem_accesses", J.Int o.mem_accesses);
      ("total_accesses", J.Int o.total_accesses);
      ("capped", J.Bool o.capped);
    ]

let outcome_of_json j =
  match j with
  | J.Obj _ -> (
      let int name =
        match J.member name j with
        | Some (J.Int i) -> Ok i
        | _ -> Error (Printf.sprintf "member '%s' missing or not an int" name)
      in
      let ( let* ) r f = Result.bind r f in
      let* cycles = int "cycles" in
      let* mem_accesses = int "mem_accesses" in
      let* total_accesses = int "total_accesses" in
      let capped =
        match J.member "capped" j with Some (J.Bool b) -> b | _ -> false
      in
      Ok { cycles; mem_accesses; total_accesses; capped })
  | _ -> Error "outcome is not a JSON object"
