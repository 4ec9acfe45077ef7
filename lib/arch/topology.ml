type cache_params = {
  cache_name : string;
  level : int;
  size_bytes : int;
  assoc : int;
  line : int;
  latency : int;
  policy : Policy.t;
}

type tree = Cache of cache_params * tree list | Core of int

type t = {
  name : string;
  clock_ghz : float;
  mem_latency : int;
  roots : tree list;
  num_cores : int;
}

let rec cores_under = function
  | Core c -> [ c ]
  | Cache (_, children) -> List.concat_map cores_under children

let rec caches_of_tree = function
  | Core _ -> []
  | Cache (p, children) -> p :: List.concat_map caches_of_tree children

let make ~name ~clock_ghz ~mem_latency roots =
  if roots = [] then invalid_arg "Topology.make: no roots";
  let cores = List.concat_map cores_under roots in
  let n = List.length cores in
  if List.sort compare cores <> List.init n Fun.id then
    invalid_arg "Topology.make: cores must be 0..n-1";
  if cores <> List.sort compare cores then
    invalid_arg "Topology.make: cores must appear left-to-right";
  let all_caches = List.concat_map caches_of_tree roots in
  let names = List.map (fun p -> p.cache_name) all_caches in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Topology.make: duplicate cache names";
  List.iter
    (fun p ->
      if p.assoc < 1 || p.line < 1 then
        invalid_arg
          (Printf.sprintf "Topology.make: cache %s needs assoc and line >= 1"
             p.cache_name);
      if p.size_bytes / p.line < p.assoc then
        invalid_arg
          (Printf.sprintf "Topology.make: cache %s smaller than one set"
             p.cache_name);
      if p.size_bytes mod (p.assoc * p.line) <> 0 then
        invalid_arg
          (Printf.sprintf "Topology.make: cache %s size not a multiple of set"
             p.cache_name);
      if p.latency <= 0 || p.level <= 0 then
        invalid_arg "Topology.make: bad latency/level")
    all_caches;
  (* Levels must strictly decrease from parent to child. *)
  let rec check_levels parent_level = function
    | Core _ -> ()
    | Cache (p, children) ->
        (match parent_level with
        | Some pl when p.level >= pl ->
            invalid_arg "Topology.make: child level must be below parent"
        | _ -> ());
        List.iter (check_levels (Some p.level)) children
  in
  List.iter (check_levels None) roots;
  (* Every core must sit under a level-1 cache. *)
  let rec check_leaf_under_l1 = function
    | Core _ -> invalid_arg "Topology.make: core without an L1 cache"
    | Cache (p, children) ->
        List.iter
          (function
            | Core _ when p.level <> 1 ->
                invalid_arg "Topology.make: core not under a level-1 cache"
            | Core _ -> ()
            | Cache _ as sub -> check_leaf_under_l1 sub)
          children
  in
  List.iter check_leaf_under_l1 roots;
  { name; clock_ghz; mem_latency; roots; num_cores = n }

let caches t = List.concat_map caches_of_tree t.roots

let levels t =
  List.sort_uniq compare (List.map (fun p -> p.level) (caches t))

let path_of_core t c =
  if c < 0 || c >= t.num_cores then invalid_arg "Topology.path_of_core";
  let rec find path = function
    | Core c' -> if c' = c then Some path else None
    | Cache (p, children) ->
        List.fold_left
          (fun acc child ->
            match acc with Some _ -> acc | None -> find (p :: path) child)
          None children
  in
  match
    List.fold_left
      (fun acc root -> match acc with Some _ -> acc | None -> find [] root)
      None t.roots
  with
  | Some path -> path (* innermost first: level ascending *)
  | None -> invalid_arg "Topology.path_of_core: core not found"

(* [make] admits each core of [0 .. num_cores - 1] exactly once. *)
let paths t =
  let paths = Array.make t.num_cores [] in
  let rec walk above = function
    | Core c -> paths.(c) <- above
    | Cache (p, children) -> List.iter (walk (p :: above)) children
  in
  List.iter (walk []) t.roots;
  paths

let affinity_level t c1 c2 =
  if c1 = c2 then
    match path_of_core t c1 with p :: _ -> Some p.level | [] -> None
  else begin
    let p1 = path_of_core t c1 and p2 = path_of_core t c2 in
    let shared =
      List.filter
        (fun a -> List.exists (fun b -> b.cache_name = a.cache_name) p2)
        p1
    in
    match shared with [] -> None | p :: _ -> Some p.level
  end

(* Cores are numbered left to right, so each root's cores are a run. *)
let root_of_cores t =
  Array.concat
    (List.mapi (fun i r -> Array.make (List.length (cores_under r)) i) t.roots)

let first_shared_level t =
  let rec collect acc = function
    | Core _ -> acc
    | Cache (p, children) ->
        let acc =
          if List.length (List.concat_map cores_under children) > 1 then
            p.level :: acc
          else acc
        in
        List.fold_left collect acc children
  in
  match List.sort compare (List.fold_left collect [] t.roots) with
  | [] -> None
  | l :: _ -> Some l

let sharing_domains t l =
  let rec collect acc = function
    | Core _ -> acc
    | Cache (p, children) ->
        let acc =
          if p.level = l then cores_under (Cache (p, children)) :: acc
          else acc
        in
        List.fold_left collect acc children
  in
  List.rev (List.fold_left collect [] t.roots)

let level_capacity t l =
  List.fold_left
    (fun acc p -> if p.level = l then acc + p.size_bytes else acc)
    0 (caches t)

let map_caches f t =
  let rec go = function
    | Core c -> Core c
    | Cache (p, children) -> Cache (f p, List.map go children)
  in
  make ~name:t.name ~clock_ghz:t.clock_ghz ~mem_latency:t.mem_latency
    (List.map go t.roots)

(* Apply parsed --policy bindings (see Policy.parse_spec): [None]
   covers every level, [Some l] one level; the last covering binding
   wins, so "plru,L2=qlru" means PLRU everywhere except L2. *)
let with_policy_spec bindings t =
  map_caches
    (fun p ->
      let policy =
        List.fold_left
          (fun acc (level, pol) ->
            match level with
            | None -> pol
            | Some l when l = p.level -> pol
            | Some _ -> acc)
          p.policy bindings
      in
      { p with policy })
    t

let apply_policy_spec spec t =
  match Policy.parse_spec spec with
  | Error e -> Error e
  | Ok bindings -> (
      let known = levels t in
      match
        List.find_map
          (function
            | Some l, _ when not (List.mem l known) -> Some l | _ -> None)
          bindings
      with
      | Some l -> Error (Printf.sprintf "machine %s has no L%d cache" t.name l)
      | None -> Ok (with_policy_spec bindings t))

let truncate_levels l t =
  let rec prune = function
    | Core c -> [ Core c ]
    | Cache (p, children) ->
        let children' = List.concat_map prune children in
        if p.level <= l then [ Cache (p, children') ] else children'
  in
  make ~name:(Printf.sprintf "%s(L<=%d)" t.name l) ~clock_ghz:t.clock_ghz
    ~mem_latency:t.mem_latency
    (List.concat_map prune t.roots)

let pp ppf t =
  let rec pp_tree indent ppf = function
    | Core c -> Fmt.pf ppf "%score %d@," (String.make indent ' ') c
    | Cache (p, children) ->
        Fmt.pf ppf "%s%s: L%d %dKB %d-way %dB-line %dcy%s@,"
          (String.make indent ' ') p.cache_name p.level (p.size_bytes / 1024)
          p.assoc p.line p.latency
          (if Policy.equal p.policy Policy.Lru then ""
           else " " ^ Policy.to_string p.policy);
        List.iter (pp_tree (indent + 2) ppf) children
  in
  Fmt.pf ppf "@[<v>%s (%d cores, %.1f GHz, mem %d cy)@," t.name t.num_cores
    t.clock_ghz t.mem_latency;
  List.iter (pp_tree 2 ppf) t.roots;
  Fmt.pf ppf "@]"
