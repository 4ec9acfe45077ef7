(* Figure 6's clustering step as it stood before its candidate heap
   was rewritten with unboxed entries, hole sifts and a branch-free
   comparison, kept verbatim as the differential oracle for
   [Ctam_core.Distribute.cluster_into]: the rewrite must return every
   input's clusters exactly as this does, equal-priority merges
   included.  Its tables, like the library's, ignore the runtime's
   hashtable seeding ([~random:false]), so the two agree under
   OCAMLRUNPARAM=R as well. *)

open Ctam_blocks

(* --- clusters ------------------------------------------------------ *)

type cluster = {
  mutable tag : Bitset.t;      (* bitwise sum of member tags *)
  mutable members : Iter_group.t list;  (* reverse assignment order *)
  mutable size : int;          (* total iterations *)
  mutable alive : bool;
  mutable version : int;       (* bumped on every merge, for the heap *)
  mutable first_key : int;     (* earliest iteration, for proximity ties *)
}

let cluster_of_group g =
  {
    tag = g.Iter_group.tag;
    members = [ g ];
    size = Iter_group.size g;
    alive = true;
    version = 0;
    first_key = Ctam_poly.Iterset.min_key g.Iter_group.iters;
  }

let cluster_groups c = List.rev c.members

(* --- a max-heap of candidate merges with lazy invalidation --------- *)

module Heap = struct
  type entry = { w : int; d : int; a : int; b : int; va : int; vb : int }

  (* Max-heap ordered by weight; iteration-space proximity (smaller
     [d]) breaks ties, which keeps merged clusters contiguous when
     affinity alone cannot discriminate (e.g. regular stencils). *)
  let gt e1 e2 = e1.w > e2.w || (e1.w = e2.w && e1.d < e2.d)

  type t = { mutable data : entry array; mutable len : int }

  let create () =
    { data = Array.make 64 { w = 0; d = 0; a = 0; b = 0; va = 0; vb = 0 };
      len = 0 }

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let push h e =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (2 * h.len) e in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && gt h.data.(!i) h.data.((!i - 1) / 2) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      h.data.(0) <- h.data.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let largest = ref !i in
        if l < h.len && gt h.data.(l) h.data.(!largest) then largest := l;
        if r < h.len && gt h.data.(r) h.data.(!largest) then largest := r;
        if !largest <> !i then begin
          swap h !i !largest;
          i := !largest
        end
        else continue := false
      done;
      Some top
    end
end

(* Agglomerate the clusters in [arr] down to [k] alive clusters by
   repeatedly merging the pair with maximal tag dot-product; pairs with
   zero affinity are merged smallest-first at the end. *)
let agglomerate arr k =
  let n = Array.length arr in
  let alive = ref n in
  let heap = Heap.create () in
  (* Only clusters sharing at least one data block can have a positive
     dot product: enumerate candidate pairs through a block -> clusters
     inverted index instead of all n^2 pairs. *)
  let block_index : (int, int list ref) Hashtbl.t =
    Hashtbl.create ~random:false 1024
  in
  Array.iteri
    (fun a cl ->
      Bitset.iter
        (fun blk ->
          match Hashtbl.find_opt block_index blk with
          | Some l -> l := a :: !l
          | None -> Hashtbl.add block_index blk (ref [ a ]))
        cl.tag)
    arr;
  (* Blocks touched by very many clusters (globally shared data, like
     a broadcast vector) do not discriminate between clusters; skip
     them when enumerating pairs to keep the candidate set near-linear.
     Pair quality is unaffected: any pair also sharing a selective
     block is still generated, and purely-global affinity ties are
     broken by the zero-affinity smallest-first fallback below. *)
  let fanout_cap = 64 in
  let seen_pairs = Hashtbl.create ~random:false 4096 in
  let push_pair a b =
    let a, b = (min a b, max a b) in
    if a <> b && arr.(a).alive && arr.(b).alive then begin
      let w = Bitset.dot arr.(a).tag arr.(b).tag in
      if w > 0 then
        Heap.push heap
          {
            Heap.w;
            d = abs (arr.(a).first_key - arr.(b).first_key);
            a;
            b;
            va = arr.(a).version;
            vb = arr.(b).version;
          }
    end
  in
  Hashtbl.iter
    (fun _blk members ->
      let ms = !members in
      if List.length ms <= fanout_cap then
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a < b && not (Hashtbl.mem seen_pairs (a, b)) then begin
                  Hashtbl.add seen_pairs (a, b) ();
                  push_pair a b
                end)
              ms)
          ms)
    block_index;
  let merge a b =
    (* Merge b into a. *)
    arr.(a).tag <- Bitset.union arr.(a).tag arr.(b).tag;
    arr.(a).members <- arr.(b).members @ arr.(a).members;
    arr.(a).size <- arr.(a).size + arr.(b).size;
    arr.(a).first_key <- min arr.(a).first_key arr.(b).first_key;
    arr.(a).version <- arr.(a).version + 1;
    arr.(b).alive <- false;
    decr alive;
    (* Refresh candidate merges against clusters sharing a block with
       the merged cluster (the only ones with a positive dot). *)
    let neighbours = Hashtbl.create ~random:false 64 in
    Bitset.iter
      (fun blk ->
        match Hashtbl.find_opt block_index blk with
        | None -> ()
        | Some l ->
            let live = List.filter (fun c -> arr.(c).alive && c <> a) !l in
            if List.length live <= fanout_cap then
              List.iter (fun c -> Hashtbl.replace neighbours c ()) live;
            (* Compact the index and record the merged cluster. *)
            l := a :: live)
      arr.(a).tag;
    Hashtbl.iter (fun c () -> push_pair a c) neighbours
  in
  let rec drain () =
    if !alive > k then
      match Heap.pop heap with
      | Some e ->
          if
            arr.(e.Heap.a).alive && arr.(e.Heap.b).alive
            && arr.(e.Heap.a).version = e.Heap.va
            && arr.(e.Heap.b).version = e.Heap.vb
          then merge e.Heap.a e.Heap.b;
          drain ()
      | None ->
          (* No data sharing left: merge the two smallest clusters so
             that sizes stay mergeable-balanced. *)
          let smallest_two () =
            let s1 = ref (-1) and s2 = ref (-1) in
            for c = 0 to n - 1 do
              if arr.(c).alive then
                if !s1 < 0 || arr.(c).size < arr.(!s1).size then begin
                  s2 := !s1;
                  s1 := c
                end
                else if !s2 < 0 || arr.(c).size < arr.(!s2).size then s2 := c
            done;
            (!s1, !s2)
          in
          let a, b = smallest_two () in
          merge (min a b) (max a b);
          drain ()
  in
  drain ()

(* Split the largest cluster (by iterations) in two; returns false when
   nothing can be split further. *)
let split_largest ~allow_splits clusters =
  let largest = ref None in
  List.iter
    (fun c ->
      if c.size > 1 then
        match !largest with
        | Some l when l.size >= c.size -> ()
        | _ -> largest := Some c)
    !clusters;
  match !largest with
  | None -> false
  | Some c -> (
      (* Prefer splitting off a whole member group; split a group in
         half only when the cluster is a single group. *)
      match cluster_groups c with
      | [] -> false
      | [ g ] ->
          if (not allow_splits) || Iter_group.size g < 2 then false
          else begin
            let g1, g2 = Iter_group.split g in
            c.members <- [ g1 ];
            c.size <- Iter_group.size g1;
            clusters := cluster_of_group g2 :: !clusters;
            true
          end
      | g :: rest ->
          c.members <- List.rev rest;
          c.size <- c.size - Iter_group.size g;
          clusters := cluster_of_group g :: !clusters;
          true)

let cluster_into ?(allow_splits = true) k groups =
  if k <= 0 then invalid_arg "Distribute.cluster_into: k";
  let arr = Array.of_list (List.map cluster_of_group groups) in
  if Array.length arr > k then agglomerate arr k;
  let clusters =
    ref (Array.to_list arr |> List.filter (fun c -> c.alive))
  in
  let progress = ref true in
  while List.length !clusters < k && !progress do
    progress := split_largest ~allow_splits clusters
  done;
  (* Pad with empty clusters when there are not enough iterations. *)
  let width =
    match groups with
    | g :: _ -> Bitset.width g.Iter_group.tag
    | [] -> 0
  in
  let rec pad cs n =
    if n <= 0 then cs
    else
      pad
        ({
           tag = Bitset.create width;
           members = [];
           size = 0;
           alive = true;
           version = 0;
           first_key = max_int;
         }
        :: cs)
        (n - 1)
  in
  let cs = pad !clusters (k - List.length !clusters) in
  List.map cluster_groups cs
