(* Naive reference models of the replacement policies other than LRU,
   written from the definitions in lib/cachesim/setassoc.ml, as the
   differential oracle for [Ctam_cachesim.Setassoc].  Each set is a
   list of ways in physical order (-1 = empty) plus its policy's state
   as plain lists, a pointer or an explicit tree: nothing is packed
   into bits.

   The shared rules: a fill takes the lowest empty way, and only a
   full set asks its policy for a victim; an invalidation punches a
   hole and leaves the policy state alone.

   - FIFO: a round-robin pointer over the ways.  Every fill moves it
     to the way after the one filled; a full set evicts the way it
     points to.  Hits change nothing.
   - Tree-PLRU: a binary tree over the ways, padded to a power of two.
     Each node names the side holding the pseudo-least-recently used
     way, and a touch points every node on the way's path away from
     it.  The victim walk follows the nodes, but turns left where the
     right side holds only padding.
   - QLRU: a 2-bit age per way.  A hit sets it to 0 and a fill to 1.
     The victim is the lowest way of age 3, after raising every age
     by the same amount so that the oldest reaches 3.  A clear set is
     all age 3.
   - MRU (used-bit NRU): a used bit per way, set on every touch; when
     that would set every bit, all the others are cleared instead.
     The victim is the lowest way whose bit is clear.
   - Random(seed): each set draws victims from its own xorshift
     generator, seeded from the seed and the set index. *)

module Policy = Ctam_arch.Policy

type tree =
  | Leaf of int
  | Node of {
      mid : int;  (* the lowest way of the right side *)
      mutable lru_right : bool;
      left : tree;
      right : tree;
    }

let rec tree lo span =
  if span = 1 then Leaf lo
  else
    let half = span / 2 in
    Node
      {
        mid = lo + half;
        lru_right = false;
        left = tree lo half;
        right = tree (lo + half) half;
      }

let rec touch_tree t way =
  match t with
  | Leaf _ -> ()
  | Node n ->
      if way < n.mid then begin
        n.lru_right <- true;
        touch_tree n.left way
      end
      else begin
        n.lru_right <- false;
        touch_tree n.right way
      end

let rec tree_victim ~assoc = function
  | Leaf way -> way
  | Node n ->
      if n.lru_right && n.mid < assoc then tree_victim ~assoc n.right
      else tree_victim ~assoc n.left

let random_mask = (1 lsl 62) - 1
let nonzero s = if s = 0 then 0x2545f491 else s

let random_start ~seed ~set =
  nonzero (((seed * 0x9e3779b1) lxor (set * 0x85ebca6b)) land random_mask)

let random_next s =
  let s = (s lxor (s lsl 13)) land random_mask in
  let s = s lxor (s lsr 7) in
  nonzero ((s lxor (s lsl 17)) land random_mask)

type state =
  | Pointer of int ref
  | Tree of tree
  | Ages of int list ref
  | Used of bool list ref
  | Rng of int ref

type set = { mutable ways : int list; state : state }

type t = {
  policy : Policy.t;
  sets : int;
  assoc : int;
  table : (int, set) Hashtbl.t;  (* the sets touched so far *)
  mutable hits : int;
  mutable misses : int;
}

let create ~policy ~sets ~assoc =
  (match policy with
  | Policy.Lru -> invalid_arg "Policy_oracle.create: LRU has its own oracle"
  | _ -> ());
  { policy; sets; assoc; table = Hashtbl.create 16; hits = 0; misses = 0 }

let rec pow2_above n p = if p >= n then p else pow2_above n (2 * p)

let fresh_set t index =
  let state =
    match t.policy with
    | Policy.Fifo -> Pointer (ref 0)
    | Policy.Plru -> Tree (tree 0 (pow2_above t.assoc 1))
    | Policy.Qlru -> Ages (ref (List.init t.assoc (fun _ -> 3)))
    | Policy.Mru -> Used (ref (List.init t.assoc (fun _ -> false)))
    | Policy.Random seed -> Rng (ref (random_start ~seed ~set:index))
    | Policy.Lru -> assert false
  in
  { ways = List.init t.assoc (fun _ -> -1); state }

let set_of t line =
  let index = line mod t.sets in
  match Hashtbl.find_opt t.table index with
  | Some s -> s
  | None ->
      let s = fresh_set t index in
      Hashtbl.add t.table index s;
      s

let find x l =
  let rec go i = function
    | [] -> -1
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

let replace l i x = List.mapi (fun j y -> if j = i then x else y) l

let touch t s way ~fill =
  match s.state with
  | Pointer p -> if fill then p := (way + 1) mod t.assoc
  | Tree tr -> touch_tree tr way
  | Ages ages -> ages := replace !ages way (if fill then 1 else 0)
  | Used used ->
      let u = replace !used way true in
      used :=
        if List.for_all Fun.id u then List.mapi (fun j _ -> j = way) u else u
  | Rng _ -> ()

let victim t s =
  match s.state with
  | Pointer p -> !p
  | Tree tr -> tree_victim ~assoc:t.assoc tr
  | Ages ages ->
      let oldest = List.fold_left max 0 !ages in
      ages := List.map (fun a -> a + 3 - oldest) !ages;
      find 3 !ages
  | Used used ->
      let w = find false !used in
      if w < 0 then t.assoc - 1 else w
  | Rng r ->
      r := random_next !r;
      !r mod t.assoc

(* [Setassoc.access]: a hit updates the policy; a miss changes only the
   counter. *)
let access t line =
  let s = set_of t line in
  let w = find line s.ways in
  if w >= 0 then begin
    t.hits <- t.hits + 1;
    touch t s w ~fill:false;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

(* [Setassoc.fill] of an absent line: the evicted line, or -1. *)
let fill t line =
  let s = set_of t line in
  let empty = find (-1) s.ways in
  let way = if empty >= 0 then empty else victim t s in
  let evicted = List.nth s.ways way in
  s.ways <- replace s.ways way line;
  touch t s way ~fill:true;
  evicted

let insert t line =
  let s = set_of t line in
  let w = find line s.ways in
  if w >= 0 then begin
    touch t s w ~fill:false;
    None
  end
  else
    let evicted = fill t line in
    if evicted < 0 then None else Some evicted

let invalidate t line =
  let s = set_of t line in
  let w = find line s.ways in
  if w >= 0 then s.ways <- replace s.ways w (-1);
  w >= 0

let contains t line = find line (set_of t line).ways >= 0

(* Resident lines, ascending. *)
let resident t =
  List.sort compare
    (Hashtbl.fold
       (fun _ s acc -> List.filter (fun l -> l >= 0) s.ways @ acc)
       t.table [])
