open Ctam_poly
open Ctam_ir
open Ctam_blocks

module Int_vec = Ctam_util.Int_vec
module Int_table = Ctam_util.Int_table

let compute (grouping : Tags.grouping) =
  let nest = grouping.Tags.nest in
  let groups = grouping.Tags.groups in
  let dg = Dep_graph.create (Array.length groups) in
  if not (Dep_test.nest_may_carry_deps nest) then dg
  else begin
    let layout = Block_map.layout grouping.Tags.block_map in
    let enc = grouping.Tags.encoder in
    (* iteration key - [lo] -> group id, over the groups' key range *)
    let members = Array.map (fun g -> Iterset.keys g.Iter_group.iters) groups in
    let lo = ref max_int and hi = ref min_int in
    Array.iter
      (fun ks ->
        let n = Array.length ks in
        if n > 0 then begin
          lo := min !lo ks.(0);
          hi := max !hi ks.(n - 1)
        end)
      members;
    let lo = !lo in
    let group_of = Array.make (if !hi < lo then 0 else !hi - lo + 1) (-1) in
    Array.iteri
      (fun i ks ->
        let id = groups.(i).Iter_group.id in
        Array.iter (fun key -> group_of.(key - lo) <- id) ks)
      members;
    let refs = Array.of_list (Nest.refs nest) in
    let addr_fns = Array.map (Layout.ref_addr_fn layout) refs in
    let writes =
      Array.map (fun r -> if Reference.is_write r then 1 else 0) refs
    in
    (* Each address's distinct accessors so far, newest first: a list
       threaded through two pooled arrays, [2 * group + is_write] in
       [accessor] and the older entry's index (or -1) in [older]. *)
    let newest = Int_table.create () in
    let accessor = Int_vec.create () and older = Int_vec.create () in
    Domain.iter
      (fun iv ->
        let g = group_of.(Iterset.encode enc iv - lo) in
        for k = 0 to Array.length refs - 1 do
          let w = writes.(k) in
          let a = (2 * g) + w in
          let s = Int_table.slot newest (addr_fns.(k) iv) in
          let head = Int_table.value newest s in
          let e = ref head in
          while !e >= 0 && accessor.data.(!e) <> a do
            e := older.data.(!e)
          done;
          if !e < 0 then begin
            let e = ref head in
            while !e >= 0 do
              let a' = accessor.data.(!e) in
              if a' lsr 1 <> g && w lor (a' land 1) = 1 then
                Dep_graph.add_edge dg (a' lsr 1) g;
              e := older.data.(!e)
            done;
            Int_table.set_value newest s accessor.length;
            Int_vec.push accessor a;
            Int_vec.push older head
          end
        done)
      nest.Nest.domain;
    dg
  end

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
      compare
        (Iterset.min_key merged.(a).Iter_group.iters)
        (Iterset.min_key merged.(b).Iter_group.iters))
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
