open Ctam_poly
open Ctam_ir

type grouping = {
  nest : Nest.t;
  block_map : Block_map.t;
  encoder : Iterset.encoder;
  groups : Iter_group.t array;
}

let blocks_of_iteration bm nest iv =
  let layout = Block_map.layout bm in
  let blocks =
    List.map
      (fun r -> Block_map.block_of_addr bm (Layout.ref_addr layout r iv))
      (Nest.refs nest)
  in
  List.sort_uniq compare blocks

let tag_of_iteration bm nest iv =
  Bitset.of_list (Block_map.num_blocks bm) (blocks_of_iteration bm nest iv)

let group ?(unit = 1) ?tile nest bm =
  if unit < 1 then invalid_arg "Tags.group: unit";
  let d = Nest.depth nest in
  (match tile with
  | Some t ->
      if Array.length t <> d then invalid_arg "Tags.group: tile length";
      Array.iter (fun e -> if e < 1 then invalid_arg "Tags.group: tile") t
  | None -> ());
  let refs = Array.of_list (Nest.refs nest) in
  let layout = Block_map.layout bm in
  let encoder = Iterset.encoder_of_domain nest.Nest.domain in
  let scratch = Array.make (Array.length refs) 0 in
  let blocks_of iv =
    Array.iteri
      (fun k r ->
        scratch.(k) <- Block_map.block_of_addr bm (Layout.ref_addr layout r iv))
      refs
  in
  (* Phase 1: coalesce iterations into units (1 iteration, [unit]
     consecutive ones, or an iteration-space tile), accumulating each
     unit's touched blocks and member keys. *)
  let units : (int list * int list) list =
    match tile with
    | Some t ->
        let by_tile : (int list, int list ref * int list ref) Hashtbl.t =
          Hashtbl.create 1024
        in
        let order = ref [] in
        Domain.iter
          (fun iv ->
            blocks_of iv;
            let tcoord = List.init d (fun k -> iv.(k) / t.(k)) in
            let bl, kl =
              match Hashtbl.find_opt by_tile tcoord with
              | Some cell -> cell
              | None ->
                  let cell = (ref [], ref []) in
                  Hashtbl.add by_tile tcoord cell;
                  order := tcoord :: !order;
                  cell
            in
            Array.iter (fun b -> bl := b :: !bl) scratch;
            kl := Iterset.encode encoder iv :: !kl)
          nest.Nest.domain;
        List.rev !order
        |> List.map (fun tc ->
               let bl, kl = Hashtbl.find by_tile tc in
               (List.sort_uniq compare !bl, !kl))
    | None ->
        let acc = ref [] in
        let unit_blocks = ref [] and unit_keys = ref [] and unit_n = ref 0 in
        let flush () =
          if !unit_n > 0 then begin
            acc := (List.sort_uniq compare !unit_blocks, !unit_keys) :: !acc;
            unit_blocks := [];
            unit_keys := [];
            unit_n := 0
          end
        in
        Domain.iter
          (fun iv ->
            blocks_of iv;
            Array.iter (fun b -> unit_blocks := b :: !unit_blocks) scratch;
            unit_keys := Iterset.encode encoder iv :: !unit_keys;
            incr unit_n;
            if !unit_n >= unit then flush ())
          nest.Nest.domain;
        flush ();
        List.rev !acc
  in
  (* Phase 2: group units by tag equality. *)
  let by_blocks : (int list, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let order : int list list ref = ref [] in
  List.iter
    (fun (blocks, keys) ->
      Ctam_util.Deadline.tick ();
      match Hashtbl.find_opt by_blocks blocks with
      | Some cell -> cell := keys @ !cell
      | None ->
          Hashtbl.add by_blocks blocks (ref keys);
          order := blocks :: !order)
    units;
  let n = Block_map.num_blocks bm in
  let groups =
    List.rev !order
    |> List.mapi (fun id blocks ->
           (* Each group sorts its keys: poll the deadline per group. *)
           Ctam_util.Deadline.check ();
           let keys = Array.of_list !(Hashtbl.find by_blocks blocks) in
           {
             Iter_group.id;
             tag = Bitset.of_list n blocks;
             iters = Iterset.of_keys encoder keys;
           })
    |> Array.of_list
  in
  { nest; block_map = bm; encoder; groups }

let group_capped ~max_groups nest bm =
  if max_groups < 1 then invalid_arg "Tags.group_capped";
  let d = Nest.depth nest in
  let trip = Nest.trip_count nest in
  let rec go edge =
    let g =
      if edge = 1 then group nest bm
      else group ~tile:(Array.make d edge) nest bm
    in
    if Array.length g.groups <= max_groups || edge > trip then g
    else go (edge * 2)
  in
  go 1

let total_iterations g =
  Array.fold_left (fun acc grp -> acc + Iter_group.size grp) 0 g.groups

let pp ppf g =
  Fmt.pf ppf "@[<v>grouping of %s: %d groups, %d iterations@,%a@]"
    g.nest.Nest.name (Array.length g.groups) (total_iterations g)
    Fmt.(array ~sep:cut Iter_group.pp)
    (Array.sub g.groups 0 (min 8 (Array.length g.groups)))
