open Ctam_poly
open Ctam_ir
module Int_vec = Ctam_util.Int_vec
module Int_table = Ctam_util.Int_table

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

(* Int tuples interned to dense ids in order of first insertion, under
   an open-addressing table.  The tuples lie back to back in one pool:
   tuple [id] is [pool.(starts.(id)) .. pool.(starts.(id + 1) - 1)]. *)
module Tuples = struct
  type t = {
    pool : Int_vec.t;
    starts : Int_vec.t;  (* one entry more than there are tuples *)
    hashes : Int_vec.t;
    mutable bits : int;
    mutable slots : int array;  (* id + 1 of the tuple there; 0 when empty *)
  }

  let create () =
    let starts = Int_vec.create () in
    Int_vec.push starts 0;
    {
      pool = Int_vec.create ();
      starts;
      hashes = Int_vec.create ();
      bits = 6;
      slots = Array.make 64 0;
    }

  let count t = t.hashes.length

  let hash buf pos len =
    let h = ref len in
    for i = pos to pos + len - 1 do
      h := (!h lxor buf.(i)) * 0x100000001b3
    done;
    !h

  let home t h = (h * 0x278DDE6E5FD29F05) lsr (63 - t.bits)

  let equal t id buf pos len =
    let s = t.starts.data.(id) in
    t.starts.data.(id + 1) - s = len
    &&
    let pool = t.pool.data in
    let i = ref 0 in
    while !i < len && pool.(s + !i) = buf.(pos + !i) do
      incr i
    done;
    !i = len

  (* The slot holding [buf.(pos .. pos + len - 1)], or the empty slot
     where it belongs. *)
  let rec probe t h buf pos len i =
    let s = t.slots.(i) in
    if s = 0 || (t.hashes.data.(s - 1) = h && equal t (s - 1) buf pos len)
    then i
    else probe t h buf pos len ((i + 1) land (Array.length t.slots - 1))

  let grow t =
    t.bits <- t.bits + 1;
    t.slots <- Array.make (1 lsl t.bits) 0;
    for id = 0 to count t - 1 do
      let rec free i =
        if t.slots.(i) = 0 then i
        else free ((i + 1) land (Array.length t.slots - 1))
      in
      t.slots.(free (home t t.hashes.data.(id))) <- id + 1
    done

  (* [intern t buf pos len] is the id of the tuple
     [buf.(pos .. pos + len - 1)], added if it is new. *)
  let intern t buf pos len =
    if 2 * (count t + 1) > Array.length t.slots then grow t;
    let h = hash buf pos len in
    let i = probe t h buf pos len (home t h) in
    if t.slots.(i) > 0 then t.slots.(i) - 1
    else begin
      let id = count t in
      for k = pos to pos + len - 1 do
        Int_vec.push t.pool buf.(k)
      done;
      Int_vec.push t.starts t.pool.length;
      Int_vec.push t.hashes h;
      t.slots.(i) <- id + 1;
      id
    end

  let to_list t id =
    let s = t.starts.data.(id) in
    List.init (t.starts.data.(id + 1) - s) (fun i -> t.pool.data.(s + i))
end

(* What every tagging pass of one nest shares, and the buffers each
   pass refills: the key of the [r]-th point of the domain (in
   [Domain.iter] order, so ascending) and its unit, which becomes its
   group id once units are grouped. *)
type ctx = {
  c_nest : Nest.t;
  bm : Block_map.t;
  enc : Iterset.encoder;
  addr_fns : (int array -> int) array;
  mark : int array;  (* per block: the last unit that recorded it *)
  point_blocks : int array;  (* one point's distinct blocks, sorted *)
  keys : Int_vec.t;
  units : Int_vec.t;
}

let context nest bm =
  let layout = Block_map.layout bm in
  let refs = Array.of_list (Nest.refs nest) in
  {
    c_nest = nest;
    bm;
    enc = Iterset.encoder_of_domain nest.Nest.domain;
    addr_fns = Array.map (Layout.ref_addr_fn layout) refs;
    mark = Array.make (Block_map.num_blocks bm) (-1);
    point_blocks = Array.make (Array.length refs) 0;
    keys = Int_vec.create ();
    units = Int_vec.create ();
  }

let start_pass c =
  Int_vec.clear c.keys;
  Int_vec.clear c.units;
  Array.fill c.mark 0 (Array.length c.mark) (-1)

(* Each point is its own unit: its distinct blocks, sorted in place,
   are its tag.  Returns the tags, one per group id. *)
let tag_points c =
  start_pass c;
  let tags = Tuples.create () in
  let nrefs = Array.length c.addr_fns in
  Domain.iter
    (fun iv ->
      let r = c.keys.length in
      let m = ref 0 in
      for k = 0 to nrefs - 1 do
        let b = Block_map.block_of_addr c.bm (c.addr_fns.(k) iv) in
        if c.mark.(b) <> r then begin
          c.mark.(b) <- r;
          (* Insertion into the sorted prefix. *)
          let i = ref !m in
          while !i > 0 && c.point_blocks.(!i - 1) > b do
            c.point_blocks.(!i) <- c.point_blocks.(!i - 1);
            decr i
          done;
          c.point_blocks.(!i) <- b;
          incr m
        end
      done;
      Int_vec.push c.units (Tuples.intern tags c.point_blocks 0 !m);
      Int_vec.push c.keys (Iterset.encode c.enc iv))
    c.c_nest.Nest.domain;
  tags

(* Stable counting sort of [src]'s first [Array.length dst] elements
   into [dst] by [key], whose values lie in [0, buckets).  Returns
   where each bucket starts in [dst], plus the end. *)
let counting_sort ~buckets key src dst =
  let start = Array.make (buckets + 1) 0 in
  for i = 0 to Array.length dst - 1 do
    let b = key src.(i) in
    start.(b + 1) <- start.(b + 1) + 1
  done;
  for b = 1 to buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let fill = Array.sub start 0 buckets in
  for i = 0 to Array.length dst - 1 do
    let b = key src.(i) in
    dst.(fill.(b)) <- src.(i);
    fill.(b) <- fill.(b) + 1
  done;
  start

(* Points with equal [iv.(k) / tile.(k)] form one unit, numbered in
   order of first appearance; a unit's tag is the union of its points'
   blocks.  Returns the tags, one per group id, after rewriting
   [c.units] from unit indices to group ids. *)
let tag_tiles c tile =
  start_pass c;
  let d = Array.length tile in
  let nb = Array.length c.mark in
  let nrefs = Array.length c.addr_fns in
  let coords = Tuples.create () in
  let tc = Array.make d 0 in
  (* Each (unit, block) pair once, coded [unit * nb + block]. *)
  let seen = Int_table.create () in
  let pairs = Int_vec.create () in
  Domain.iter
    (fun iv ->
      for k = 0 to d - 1 do
        tc.(k) <- iv.(k) / tile.(k)
      done;
      let u = Tuples.intern coords tc 0 d in
      for k = 0 to nrefs - 1 do
        let b = Block_map.block_of_addr c.bm (c.addr_fns.(k) iv) in
        if c.mark.(b) <> u then begin
          c.mark.(b) <- u;
          let s = Int_table.slot seen ((u * nb) + b) in
          if Int_table.value seen s < 0 then begin
            Int_table.set_value seen s 0;
            Int_vec.push pairs ((u * nb) + b)
          end
        end
      done;
      Int_vec.push c.units u;
      Int_vec.push c.keys (Iterset.encode c.enc iv))
    c.c_nest.Nest.domain;
  (* Each unit's blocks in ascending order: sort the pairs by block,
     then stably by unit. *)
  let nu = Tuples.count coords and np = pairs.length in
  let by_block = Array.make np 0 and by_unit = Array.make np 0 in
  ignore
    (counting_sort ~buckets:nb (fun code -> code mod nb) pairs.data by_block);
  let start =
    counting_sort ~buckets:nu (fun code -> code / nb) by_block by_unit
  in
  let blocks = Array.map (fun code -> code mod nb) by_unit in
  let tags = Tuples.create () in
  let group_of_unit =
    Array.init nu (fun u ->
        Ctam_util.Deadline.tick ();
        Tuples.intern tags blocks start.(u) (start.(u + 1) - start.(u)))
  in
  let units = c.units.data in
  for r = 0 to c.units.length - 1 do
    units.(r) <- group_of_unit.(units.(r))
  done;
  tags

(* Materialize the groups of the last pass: a counting sort of the
   points by group id hands every group its keys, still ascending. *)
let build c tags =
  let ng = Tuples.count tags in
  let n = c.keys.length in
  let gids = c.units.data and keys = c.keys.data in
  let fill = Array.make ng 0 in
  for r = 0 to n - 1 do
    fill.(gids.(r)) <- fill.(gids.(r)) + 1
  done;
  let members = Array.map (fun size -> Array.make size 0) fill in
  Array.fill fill 0 ng 0;
  for r = 0 to n - 1 do
    let g = gids.(r) in
    members.(g).(fill.(g)) <- keys.(r);
    fill.(g) <- fill.(g) + 1
  done;
  let nb = Array.length c.mark in
  let groups =
    Array.init ng (fun id ->
        Ctam_util.Deadline.check ();
        {
          Iter_group.id;
          tag = Bitset.of_list nb (Tuples.to_list tags id);
          iters = Iterset.of_sorted_keys c.enc members.(id);
        })
  in
  { nest = c.c_nest; block_map = c.bm; encoder = c.enc; groups }

let group ?tile nest bm =
  let d = Nest.depth nest in
  (match tile with
  | Some t ->
      if Array.length t <> d then invalid_arg "Tags.group: tile length";
      Array.iter (fun e -> if e < 1 then invalid_arg "Tags.group: tile") t
  | None -> ());
  let c = context nest bm in
  build c (match tile with None -> tag_points c | Some t -> tag_tiles c t)

let group_capped ~max_groups nest bm =
  if max_groups < 1 then invalid_arg "Tags.group_capped";
  let d = Nest.depth nest in
  let c = context nest bm in
  let rec go edge =
    let tags =
      if edge = 1 then tag_points c else tag_tiles c (Array.make d edge)
    in
    (* [c.keys] holds one key per point: its length is the trip count. *)
    if Tuples.count tags <= max_groups || edge > c.keys.length then
      build c tags
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
