(* The first half of a compile as it stood before tagging, the group
   dependence scan and Base's chunking were rewritten over int arrays,
   kept verbatim as the differential oracle for [Ctam_blocks.Tags],
   [Ctam_deps.Group_deps.compute] and [Ctam_core.Baselines]: the
   rewrite must return every input's groups (order, ids, tags, member
   keys), dependence edges and Base chunk key sets exactly as this
   does.  Its results do not depend on hashtable seeding, so the two
   agree under OCAMLRUNPARAM=R as well. *)

open Ctam_poly
open Ctam_ir
open Ctam_blocks
open Ctam_deps

(* --- Tags.group and Tags.group_capped ------------------------------ *)

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
  { Tags.nest; block_map = bm; encoder; groups }

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

(* --- Group_deps.compute -------------------------------------------- *)

let compute (grouping : Tags.grouping) =
  let nest = grouping.Tags.nest in
  let n = Array.length grouping.Tags.groups in
  let dg = Dep_graph.create n in
  if not (Dep_test.nest_may_carry_deps nest) then dg
  else begin
    let layout = Block_map.layout grouping.Tags.block_map in
    let enc = grouping.Tags.encoder in
    (* iteration key -> group id *)
    let group_of = Hashtbl.create ~random:false 1024 in
    Array.iter
      (fun g ->
        Array.iter
          (fun key -> Hashtbl.replace group_of key g.Iter_group.id)
          (Iterset.keys g.Iter_group.iters))
      grouping.Tags.groups;
    let refs = Array.of_list (Nest.refs nest) in
    (* addr -> accesses seen so far as (group, is_write), deduplicated *)
    let table : (int, (int * bool) list ref) Hashtbl.t =
      Hashtbl.create ~random:false 4096
    in
    Domain.iter
      (fun iv ->
        let key = Iterset.encode enc iv in
        let g = Hashtbl.find group_of key in
        Array.iter
          (fun r ->
            let addr = Layout.ref_addr layout r iv in
            let w = Reference.is_write r in
            let cell =
              match Hashtbl.find_opt table addr with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.add table addr c;
                  c
            in
            if not (List.mem (g, w) !cell) then begin
              List.iter
                (fun (g', w') ->
                  if g' <> g && (w || w') then Dep_graph.add_edge dg g' g)
                !cell;
              cell := (g, w) :: !cell
            end)
          refs)
      nest.Nest.domain;
    dg
  end

(* --- Baselines.block_partition, and Base's pseudo-group encoding ---- *)

let block_partition ~n nest =
  if n <= 0 then invalid_arg "Baselines.block_partition";
  let iters = Domain.to_list nest.Nest.domain in
  let total = List.length iters in
  let result = Array.make n [] in
  (* Chunk c gets iterations [c*total/n, (c+1)*total/n). *)
  List.iteri
    (fun i iv ->
      let c = min (n - 1) (i * n / total) in
      result.(c) <- iv :: result.(c))
    iters;
  Array.map List.rev result

(* Each core's chunk as the set Mapping.compile's Base plan gave its
   pseudo-group (a core with an empty chunk had none). *)
let base_chunk_sets ~n nest =
  let encoder = Iterset.encoder_of_domain nest.Nest.domain in
  Array.map (Iterset.of_list encoder) (block_partition ~n nest)
