open Ctam_arch
open Ctam_ir
open Ctam_blocks
open Ctam_deps
open Ctam_core
module J = Ctam_util.Json
module Iterset = Ctam_poly.Iterset
module Domain = Ctam_poly.Domain
module Codegen = Ctam_poly.Codegen
module Int_table = Ctam_util.Int_table

module Tel = Ctam_telemetry

let tel_checks =
  Tel.Metrics.Counter.v ~help:"Mapping verifications performed"
    "ctam_verify_checks_total"

let tel_violations =
  Tel.Metrics.Counter.v ~labels:[ "invariant" ]
    ~help:"Invariant violations found, by invariant"
    "ctam_verify_violations_total"

type issue = { invariant : string; detail : string }

type report = {
  issues : issue list;
  nests_checked : int;
  groups_checked : int;
  points_checked : int;
  edges_checked : int;
  phases_checked : int;
}

let ok r = r.issues = []

let issue invariant fmt = Fmt.kstr (fun detail -> { invariant; detail }) fmt

let pp_iv ppf iv =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ",") int) iv

(* Mutable accumulator threaded through the per-plan checks. *)
type acc = {
  mutable acc_issues : issue list;  (* newest first *)
  mutable nests : int;
  mutable groups : int;
  mutable points : int;
  mutable edges : int;
  mutable phases : int;
}

let add acc i = acc.acc_issues <- i :: acc.acc_issues

(* --- invariant 4: topology well-formedness --------------------------- *)

let rec has_dup = function
  | a :: (b :: _ as rest) -> a = b || has_dup rest
  | _ -> false

let check_topology topo =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let n = topo.Topology.num_cores in
  let leaf_cores = List.concat_map Topology.cores_under topo.Topology.roots in
  if List.sort compare leaf_cores <> List.init n Fun.id then
    add
      (issue "topology" "cores are not numbered 0..%d exactly once (leaves: %a)"
         (n - 1)
         Fmt.(list ~sep:comma int)
         leaf_cores);
  let paths = Topology.paths topo in
  let path_levels c = List.map (fun p -> p.Topology.level) paths.(c) in
  for c = 0 to n - 1 do
    let levels = path_levels c in
    let rec strictly_ascending = function
      | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
      | _ -> true
    in
    if not (strictly_ascending levels) then
      add
        (issue "topology"
           "core %d does not reach exactly one cache per level (path levels: \
            %a)"
           c
           Fmt.(list ~sep:comma int)
           levels)
  done;
  (* Sharing domains at each level partition the cores that have a
     cache of that level on their path. *)
  List.iter
    (fun level ->
      let domains = Topology.sharing_domains topo level in
      let members = List.concat domains in
      if has_dup (List.sort compare members) then
        add
          (issue "topology"
             "level %d: some core belongs to several sharing domains (%a)"
             level
             Fmt.(list ~sep:semi (list ~sep:comma int))
             domains);
      let with_level =
        List.filter
          (fun c -> List.mem level (path_levels c))
          (List.init n Fun.id)
      in
      if List.sort_uniq compare members <> with_level then
        add
          (issue "topology"
             "level %d: sharing domains cover cores %a but the cores reaching \
              a level-%d cache are %a"
             level
             Fmt.(list ~sep:comma int)
             (List.sort_uniq compare members) level
             Fmt.(list ~sep:comma int)
             with_level))
    (Topology.levels topo);
  (* Sharing is symmetric: [Topology.make] rejects duplicate names. *)
  List.rev !issues

(* --- invariants 1 + 2: coverage/disjointness and codegen ------------- *)

(* Re-encode a group's points into [enc] (the checker's own encoder over
   the nest domain), reporting points that do not even fit the domain's
   bounding box.  Using a fresh encoder makes the set algebra
   independent of whichever encoder the pipeline built the group with. *)
let reencode acc enc ~nest_name ~group_id iters =
  let keys = ref [] in
  Iterset.iter
    (fun iv ->
      match Iterset.encode enc iv with
      | k -> keys := k :: !keys
      | exception Invalid_argument _ ->
          add acc
            (issue "coverage"
               "nest %s: group %d contains point %a outside the domain \
                bounding box"
               nest_name group_id pp_iv iv))
    iters;
  Iterset.of_keys enc (Array.of_list !keys)

let check_plan acc (plan : Mapping.nest_plan) =
  let nest = plan.Mapping.plan_nest in
  let nest_name = nest.Nest.name in
  let dom = nest.Nest.domain in
  let enc = Iterset.encoder_of_domain dom in
  let domain_set = Iterset.of_domain enc dom in
  (* Every key a group holds is marked [0] once assigned (a key only
     looked up holds [-1]): one table per nest keeps the check linear
     in the plan's points. *)
  let seen = Int_table.create () in
  let assigned k = Int_table.value seen (Int_table.slot seen k) = 0 in
  let assign k =
    let s = Int_table.slot seen k in
    let before = Int_table.value seen s = 0 in
    Int_table.set_value seen s 0;
    before
  in
  (* How many of [keys] (ascending) [hit] selects, and the first one. *)
  let count_first hit keys =
    Array.fold_left
      (fun (n, first) k ->
        if hit k then (n + 1, if n = 0 then k else first) else (n, first))
      (0, -1) keys
  in
  acc.nests <- acc.nests + 1;
  List.iter
    (fun round ->
      Array.iter
        (List.iter (fun (g : Iter_group.t) ->
             (* Each group is re-encoded, marked and decomposed: poll
                the request deadline per group. *)
             Ctam_util.Deadline.check ();
             acc.groups <- acc.groups + 1;
             acc.points <- acc.points + Iterset.cardinal g.Iter_group.iters;
             let gs =
               reencode acc enc ~nest_name ~group_id:g.Iter_group.id
                 g.Iter_group.iters
             in
             let repeats, first = count_first assign (Iterset.keys gs) in
             if repeats > 0 then
               add acc
                 (issue "disjointness"
                    "nest %s: group %d repeats %d iteration(s) already \
                     assigned elsewhere, e.g. %a"
                    nest_name g.Iter_group.id repeats pp_iv
                    (Iterset.decode enc first));
             (* Codegen faithfulness: the decomposed boxes must
                re-enumerate exactly the group's points. *)
             let cg = Codegen.decompose g.Iter_group.iters in
             let pts = List.sort compare (Codegen.enumerate cg) in
             let expect = Iterset.to_list g.Iter_group.iters in
             if pts <> expect then
               add acc
                 (issue "codegen"
                    "nest %s: group %d decomposes into boxes enumerating %d \
                     point(s) where the group has %d"
                    nest_name g.Iter_group.id (List.length pts)
                    (List.length expect))))
        round)
    plan.Mapping.plan_rounds;
  let missing, first =
    count_first (fun k -> not (assigned k)) (Iterset.keys domain_set)
  in
  if missing > 0 then
    add acc
      (issue "coverage"
         "nest %s: %d of %d iteration(s) are never assigned to any group, \
          e.g. %a"
         nest_name missing (Iterset.cardinal domain_set) pp_iv
         (Iterset.decode enc first))

(* --- invariant 3a: dependence legality ------------------------------- *)

(* Schedule position of one group occurrence.  [pos_a] precedes
   [pos_b] iff a phase boundary separates them, or they run
   sequentially on the same core. *)
let precedes (r1, c1, p1) (r2, c2, p2) =
  r1 < r2 || (r1 = r2 && c1 = c2 && p1 < p2)

(* Under [Distribute.Cluster], Topology_aware / Combined mappings fuse
   every weakly-connected set of dependent groups into one indivisible
   plan group with a fresh id (see [Distribute.fuse_dependent]), then
   drop the dependence graph: the whole cluster runs sequentially on
   one core in ascending iteration order — the original source order —
   so no cross-core ordering remains to enforce.  The plan's ids
   therefore no longer name the origin groups; instead of matching ids
   we check the clustering contract itself: each endpoint of every
   dependence edge must sit wholly inside a single scheduled plan
   group, and both endpoints of an edge must share that group. *)
let check_deps_clustered acc ~nest_name ~enc ~groups ~dag
    (plan : Mapping.nest_plan) =
  let occs = ref [] in
  List.iteri
    (fun r round ->
      Array.iteri
        (fun core gs ->
          List.iteri
            (fun pos (g : Iter_group.t) ->
              let iters =
                reencode acc enc ~nest_name ~group_id:g.Iter_group.id
                  g.Iter_group.iters
              in
              occs := ((r, core, pos), iters) :: !occs)
            gs)
        round)
    plan.Mapping.plan_rounds;
  let container id =
    let iters =
      reencode acc enc ~nest_name ~group_id:id groups.(id).Iter_group.iters
    in
    List.filter (fun (_, o) -> Iterset.subset iters o) !occs
  in
  let containers = Hashtbl.create 64 in
  let container_of id =
    match Hashtbl.find_opt containers id with
    | Some c -> c
    | None ->
        let c =
          match container id with
          | [ (occ, _) ] -> Some occ
          | [] ->
              add acc
                (issue "dependence"
                   "nest %s: dependent group %d is split across plan groups \
                    — its cluster is not indivisible"
                   nest_name id);
              None
          | _ :: _ :: _ ->
              (* Two scheduled groups each containing the same origin
                 group would duplicate its points; coverage flags the
                 duplication, here it breaks the ordering argument. *)
              add acc
                (issue "dependence"
                   "nest %s: dependent group %d appears in more than one \
                    plan group"
                   nest_name id);
              None
        in
        Hashtbl.replace containers id c;
        c
  in
  List.iter
    (fun (a, b) ->
      acc.edges <- acc.edges + 1;
      if a < Array.length groups && b < Array.length groups then
        match (container_of a, container_of b) with
        | Some ((_, ca, _) as oa), Some ((_, cb, _) as ob) ->
            if oa <> ob then
              add acc
                (issue "dependence"
                   "nest %s: dependence %d -> %d crosses clusters (cores %d \
                    and %d) with no synchronization"
                   nest_name a b ca cb)
        | _ -> ())
    (Dep_graph.edges dag)

let check_deps acc (c : Mapping.compiled) (plan : Mapping.nest_plan) =
  let nest = plan.Mapping.plan_nest in
  if nest.Nest.parallel then begin
    let _grouping, groups, dag =
      Mapping.grouping_for ~params:c.Mapping.params ~machine:c.Mapping.map_topo
        c.Mapping.program nest
    in
    if not (Dep_graph.is_empty dag) then begin
      let nest_name = nest.Nest.name in
      let clustered =
        c.Mapping.params.Mapping.dependence_mode = Distribute.Cluster
        && (match c.Mapping.scheme with
           | Mapping.Topology_aware | Mapping.Combined -> true
           | Mapping.Base | Mapping.Base_plus | Mapping.Local -> false)
      in
      if clustered then
        let enc = Iterset.encoder_of_domain nest.Nest.domain in
        check_deps_clustered acc ~nest_name ~enc ~groups ~dag plan
      else begin
      (* Occurrences of each origin group id: split parts share their
         origin's id and are all constrained at origin granularity. *)
      let occs : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
      let parts : (int, Iterset.t list) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun r round ->
          Array.iteri
            (fun core gs ->
              List.iteri
                (fun pos (g : Iter_group.t) ->
                  Hashtbl.add occs g.Iter_group.id (r, core, pos);
                  let prev =
                    Option.value ~default:[]
                      (Hashtbl.find_opt parts g.Iter_group.id)
                  in
                  Hashtbl.replace parts g.Iter_group.id
                    (g.Iter_group.iters :: prev))
                gs)
            round)
        plan.Mapping.plan_rounds;
      (* The plan's per-id content must match the recomputed grouping —
         otherwise the dependence graph below talks about different
         sets than the ones scheduled. *)
      let enc = Iterset.encoder_of_domain nest.Nest.domain in
      Array.iteri
        (fun id (g : Iter_group.t) ->
          let planned =
            List.fold_left
              (fun u s ->
                Iterset.union u
                  (reencode acc enc ~nest_name ~group_id:id s))
              (Iterset.empty enc)
              (Option.value ~default:[] (Hashtbl.find_opt parts id))
          in
          let expect = reencode acc enc ~nest_name ~group_id:id g.Iter_group.iters in
          if not (Iterset.equal planned expect) then
            add acc
              (issue "dependence"
                 "nest %s: scheduled parts of group %d hold %d iteration(s) \
                  but the grouping defines %d — dependence conclusions are \
                  unsound"
                 nest_name id (Iterset.cardinal planned)
                 (Iterset.cardinal expect)))
        groups;
      List.iter
        (fun (a, b) ->
          acc.edges <- acc.edges + 1;
          let oa = Hashtbl.find_all occs a and ob = Hashtbl.find_all occs b in
          if oa = [] || ob = [] then
            add acc
              (issue "dependence"
                 "nest %s: dependence %d -> %d involves a group that is never \
                  scheduled"
                 nest_name a b)
          else
            List.iter
              (fun pa ->
                List.iter
                  (fun pb ->
                    if not (precedes pa pb) then
                      let ra, ca, _ = pa and rb, cb, _ = pb in
                      add acc
                        (issue "dependence"
                           "nest %s: dependence %d -> %d runs backwards: %d \
                            is in phase %d on core %d, not ordered before %d \
                            in phase %d on core %d"
                           nest_name a b a ra ca b rb cb))
                  ob)
              oa)
        (Dep_graph.edges dag)
      end
    end
  end

(* --- invariant 3b: race freedom -------------------------------------- *)

let check_races acc (c : Mapping.compiled) =
  let det = Race.create () in
  Race.replay det (Mapping.forced_phases c);
  acc.phases <- acc.phases + List.length c.Mapping.phases;
  if Race.num_conflicts det > 0 then begin
    List.iter
      (fun conflict ->
        add acc (issue "race" "%a" Race.pp_conflict conflict))
      (Race.conflicts det);
    let shown = List.length (Race.conflicts det) in
    let total = Race.num_conflicts det in
    if total > shown then
      add acc
        (issue "race" "... and %d further conflicting access(es)"
           (total - shown))
  end

(* --- entry points ----------------------------------------------------- *)

let check (c : Mapping.compiled) =
  let acc =
    { acc_issues = []; nests = 0; groups = 0; points = 0; edges = 0; phases = 0 }
  in
  List.iter (add acc) (check_topology c.Mapping.map_topo);
  if c.Mapping.machine != c.Mapping.map_topo then
    List.iter (add acc) (check_topology c.Mapping.machine);
  List.iter
    (fun plan ->
      check_plan acc plan;
      check_deps acc c plan)
    c.Mapping.plans;
  check_races acc c;
  let issues = List.rev acc.acc_issues in
  Tel.Metrics.Counter.inc0 tel_checks;
  List.iter
    (fun i ->
      Tel.Metrics.Counter.inc
        (Tel.Metrics.Counter.series tel_violations [ i.invariant ]))
    issues;
  {
    issues;
    nests_checked = acc.nests;
    groups_checked = acc.groups;
    points_checked = acc.points;
    edges_checked = acc.edges;
    phases_checked = acc.phases;
  }

let to_json r =
  J.Obj
    [
      ("ok", J.Bool (ok r));
      ( "issues",
        J.List
          (List.map
             (fun i ->
               J.Obj
                 [
                   ("invariant", J.String i.invariant);
                   ("detail", J.String i.detail);
                 ])
             r.issues) );
      ("nests_checked", J.Int r.nests_checked);
      ("groups_checked", J.Int r.groups_checked);
      ("points_checked", J.Int r.points_checked);
      ("edges_checked", J.Int r.edges_checked);
      ("phases_checked", J.Int r.phases_checked);
    ]

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf
      "mapping verified: %d nest(s), %d group(s), %d point(s), %d dependence \
       edge(s), %d phase(s) — all invariants hold"
      r.nests_checked r.groups_checked r.points_checked r.edges_checked
      r.phases_checked
  else begin
    Fmt.pf ppf "mapping INVALID: %d violation(s)@," (List.length r.issues);
    List.iter
      (fun i -> Fmt.pf ppf "  [%s] %s@," i.invariant i.detail)
      r.issues;
    Fmt.pf ppf
      "(checked %d nest(s), %d group(s), %d point(s), %d edge(s), %d \
       phase(s))"
      r.nests_checked r.groups_checked r.points_checked r.edges_checked
      r.phases_checked
  end
