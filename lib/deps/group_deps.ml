open Ctam_poly
open Ctam_ir
open Ctam_blocks

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

let min_key iters =
  let ks = Iterset.keys iters in
  if Array.length ks = 0 then max_int else ks.(0)

let merge_cycles (grouping : Tags.grouping) dg =
  let comp, cond_dag = Dep_graph.condense dg in
  let k = Dep_graph.num_nodes cond_dag in
  let groups = grouping.Tags.groups in
  (* Union members of each component. *)
  let members = Array.make k [] in
  Array.iteri (fun gi g -> members.(comp.(gi)) <- g :: members.(comp.(gi))) groups;
  let merged =
    Array.map
      (fun gs ->
        match gs with
        | [] -> assert false
        | g0 :: rest ->
            List.fold_left
              (fun acc g ->
                {
                  acc with
                  Iter_group.tag = Bitset.union acc.Iter_group.tag g.Iter_group.tag;
                  iters = Iterset.union acc.Iter_group.iters g.Iter_group.iters;
                })
              g0 rest)
      members
  in
  (* Renumber components by their first iteration so group order stays
     deterministic and sequential-ish. *)
  let order = Array.init k Fun.id in
  Array.sort
    (fun a b ->
      compare (min_key merged.(a).Iter_group.iters)
        (min_key merged.(b).Iter_group.iters))
    order;
  let new_id = Array.make k 0 in
  Array.iteri (fun pos old -> new_id.(old) <- pos) order;
  let final =
    Array.init k (fun pos ->
        { (merged.(order.(pos))) with Iter_group.id = pos })
  in
  let dag = Dep_graph.create k in
  List.iter
    (fun (a, b) -> Dep_graph.add_edge dag new_id.(a) new_id.(b))
    (Dep_graph.edges cond_dag);
  (final, dag)

let dependent_fraction dg =
  let n = Dep_graph.num_nodes dg in
  if n = 0 then 0.
  else begin
    let dep = ref 0 in
    for v = 0 to n - 1 do
      if Dep_graph.preds dg v <> [] || Dep_graph.succs dg v <> [] then incr dep
    done;
    float_of_int !dep /. float_of_int n
  end
