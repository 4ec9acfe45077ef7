open Ctam_arch
open Ctam_blocks

let default_balance_threshold = 0.10

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

(* Max-heap ordered by weight [w]; iteration-space proximity (smaller
   [d]) breaks ties, which keeps merged clusters contiguous when
   affinity alone cannot discriminate (e.g. regular stencils).  Entries
   with equal (w, d) pop in whatever order the sifts leave them, so
   that order is part of the model: the sifts make exactly the
   comparisons of a swap-based binary heap (sift-up while the entry
   strictly beats its parent; sift-down compares the left child with
   the moving entry, then the right child with the better of the two),
   and so leave the same arrangement after every operation.

   A compile pushes millions of mostly stale candidates, so entries
   live unboxed in parallel arrays and sifts move a hole instead of
   swapping.  [pair] and [vers] are payloads the heap never reads. *)
module Heap = struct
  type t = {
    mutable w : int array;
    mutable d : int array;
    mutable pair : int array;
    mutable vers : int array;
    mutable len : int;
  }

  (* [w1 > w2 || (w1 = w2 && d1 < d2)], exactly, for every int.  Weights
     tie constantly, so the short-circuit form mispredicts on almost
     every sift step; this one has no branch. *)
  let[@inline] beats w1 d1 w2 d2 =
    (2 * compare (w1 : int) w2) + compare (d2 : int) d1 > 0

  let create () =
    let a () = Array.make 64 0 in
    { w = a (); d = a (); pair = a (); vers = a (); len = 0 }

  let is_empty h = h.len = 0

  (* Payloads of the best entry; the heap must not be empty. *)
  let top_pair h = h.pair.(0)
  let top_vers h = h.vers.(0)

  let[@inline] set h i w d pair vers =
    h.w.(i) <- w;
    h.d.(i) <- d;
    h.pair.(i) <- pair;
    h.vers.(i) <- vers

  let[@inline] move h ~src ~dst =
    set h dst h.w.(src) h.d.(src) h.pair.(src) h.vers.(src)

  let push h w d pair vers =
    if h.len = Array.length h.w then begin
      let grow a =
        let bigger = Array.make (2 * h.len) 0 in
        Array.blit a 0 bigger 0 h.len;
        bigger
      in
      h.w <- grow h.w;
      h.d <- grow h.d;
      h.pair <- grow h.pair;
      h.vers <- grow h.vers
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if beats w d h.w.(p) h.d.(p) then begin
        move h ~src:p ~dst:!i;
        i := p
      end
      else continue := false
    done;
    set h !i w d pair vers

  (* Remove the best entry; the heap must not be empty. *)
  let drop h =
    let n = h.len - 1 in
    h.len <- n;
    let w = h.w.(n) and d = h.d.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = ref !i and cw = ref w and cd = ref d in
        if beats h.w.(l) h.d.(l) w d then begin
          c := l;
          cw := h.w.(l);
          cd := h.d.(l)
        end;
        let r = l + 1 in
        if r < n && beats h.w.(r) h.d.(r) !cw !cd then c := r;
        if !c = !i then continue := false
        else begin
          move h ~src:!c ~dst:!i;
          i := !c
        end
      end
    done;
    move h ~src:n ~dst:!i
end

(* Agglomerate the clusters in [arr] down to [k] alive clusters by
   repeatedly merging the pair with maximal tag dot-product; pairs with
   zero affinity are merged smallest-first at the end. *)
let agglomerate arr k =
  let n = Array.length arr in
  (* Heap payloads pack two cluster indices, or two versions, into one
     int.  Indices are below [n], and so are versions: each merge bumps
     one version and there are fewer than [n] merges. *)
  if n > 1 lsl 31 then invalid_arg "Distribute.cluster_into: too many groups";
  let pack x y = (x lsl 31) lor y in
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
        Heap.push heap w
          (abs (arr.(a).first_key - arr.(b).first_key))
          (pack a b)
          (pack arr.(a).version arr.(b).version)
    end
  in
  Hashtbl.iter
    (fun _blk members ->
      let ms = !members in
      if List.length ms <= fanout_cap then
        List.iter
          (fun a ->
            Ctam_util.Deadline.tick ();
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
        Ctam_util.Deadline.tick ();
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
      if not (Heap.is_empty heap) then begin
        Ctam_util.Deadline.tick ();
        let pair = Heap.top_pair heap and vers = Heap.top_vers heap in
        Heap.drop heap;
        let a = pair lsr 31 and b = pair land ((1 lsl 31) - 1) in
        if
          arr.(a).alive && arr.(b).alive
          && pack arr.(a).version arr.(b).version = vers
        then merge a b;
        drain ()
      end
      else begin
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
      end
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

(* --- load balancing ------------------------------------------------ *)

let balance ?(allow_splits = true) ~threshold ~weights clusters =
  let k = Array.length clusters in
  if Array.length weights <> k then invalid_arg "Distribute.balance: weights";
  let cl =
    Array.map
      (fun groups ->
        let width =
          match groups with
          | g :: _ -> Bitset.width g.Iter_group.tag
          | [] -> 0
        in
        let tag =
          List.fold_left
            (fun acc g -> Bitset.union acc g.Iter_group.tag)
            (Bitset.create width) groups
        in
        {
          tag;
          members = List.rev groups;
          size = List.fold_left (fun s g -> s + Iter_group.size g) 0 groups;
          alive = true;
          version = 0;
          first_key =
            List.fold_left
              (fun acc g ->
                min acc (Ctam_poly.Iterset.min_key g.Iter_group.iters))
              max_int groups;
        })
      clusters
  in
  (* Clusters with a zero-width tag (empty input) adopt the width of a
     non-empty sibling so unions below stay well-typed. *)
  let width =
    Array.fold_left
      (fun acc c -> max acc (Bitset.width c.tag))
      0 cl
  in
  Array.iter
    (fun c -> if Bitset.width c.tag <> width then c.tag <- Bitset.create width)
    cl;
  let total = Array.fold_left (fun acc c -> acc + c.size) 0 cl in
  let wsum = Array.fold_left ( + ) 0 weights in
  let avg i = float_of_int (total * weights.(i)) /. float_of_int wsum in
  let up i = int_of_float (ceil (avg i *. (1. +. threshold))) in
  let low i = int_of_float (floor (avg i *. (1. -. threshold))) in
  let find_donor () =
    let best = ref (-1) in
    for i = 0 to k - 1 do
      if cl.(i).size > up i && (!best < 0 || cl.(i).size - up i > cl.(!best).size - up !best)
      then best := i
    done;
    !best
  in
  let find_recipient donor =
    let best = ref (-1) in
    let deficit i = avg i -. float_of_int cl.(i).size in
    for i = 0 to k - 1 do
      if i <> donor && (!best < 0 || deficit i > deficit !best) then best := i
    done;
    !best
  in
  let total_members =
    Array.fold_left (fun acc c -> acc + List.length c.members) 0 cl
  in
  (* Every move strictly shrinks some donor's excess; group moves are
     bounded by a small multiple of the group count in practice. *)
  let guard = ref ((20 * total_members) + 200) in
  (* Each move below scans the donor's groups with bitset products, so
     both loops poll the request deadline once per move. *)
  let rec loop () =
    Ctam_util.Deadline.check ();
    decr guard;
    if !guard <= 0 then ()
    else begin
      let d = find_donor () in
      if d < 0 then ()
      else begin
        let r = find_recipient d in
        if r < 0 then ()
        else begin
          (* Whole-group move maximizing affinity with the recipient,
             keeping both clusters inside their windows. *)
          let eligible g =
            let s = Iter_group.size g in
            cl.(d).size - s >= low d && cl.(r).size + s <= up r
          in
          let best = ref None in
          List.iter
            (fun g ->
              if eligible g then begin
                let w = Bitset.dot g.Iter_group.tag cl.(r).tag in
                let dist =
                  abs (Ctam_poly.Iterset.min_key g.Iter_group.iters
                       - cl.(r).first_key)
                in
                match !best with
                | Some (_, w', dist') when w' > w || (w' = w && dist' <= dist)
                  -> ()
                | _ -> best := Some (g, w, dist)
              end)
            cl.(d).members;
          (match !best with
          | Some (g, _, _) ->
              cl.(d).members <- List.filter (fun x -> x != g) cl.(d).members;
              cl.(d).size <- cl.(d).size - Iter_group.size g;
              cl.(r).members <- g :: cl.(r).members;
              cl.(r).size <- cl.(r).size + Iter_group.size g;
              cl.(r).tag <- Bitset.union cl.(r).tag g.Iter_group.tag;
              cl.(r).first_key <-
                min cl.(r).first_key
                  (Ctam_poly.Iterset.min_key g.Iter_group.iters)
          | None when not allow_splits -> guard := 0
          | None -> (
              (* No whole group fits: split the highest-affinity group
                 and move just enough iterations. *)
              let want =
                min
                  (cl.(d).size - int_of_float (avg d))
                  (int_of_float (avg r) - cl.(r).size)
                |> max 1
              in
              let pick = ref None in
              List.iter
                (fun g ->
                  let w = Bitset.dot g.Iter_group.tag cl.(r).tag in
                  let dist =
                    abs (Ctam_poly.Iterset.min_key g.Iter_group.iters
                         - cl.(r).first_key)
                  in
                  match !pick with
                  | Some (_, w', dist') when w' > w || (w' = w && dist' <= dist)
                    -> ()
                  | _ -> pick := Some (g, w, dist))
                cl.(d).members;
              match !pick with
              | None -> guard := 0 (* donor empty: give up *)
              | Some (g, _, _) ->
                  let n = min want (Iter_group.size g - 1) in
                  if n < 1 then begin
                    (* Move the whole (size-1) group as a last resort. *)
                    cl.(d).members <-
                      List.filter (fun x -> x != g) cl.(d).members;
                    cl.(d).size <- cl.(d).size - Iter_group.size g;
                    cl.(r).members <- g :: cl.(r).members;
                    cl.(r).size <- cl.(r).size + Iter_group.size g;
                    cl.(r).tag <- Bitset.union cl.(r).tag g.Iter_group.tag
                  end
                  else begin
                    let moved, kept = Iter_group.split_at n g in
                    cl.(d).members <-
                      kept :: List.filter (fun x -> x != g) cl.(d).members;
                    cl.(d).size <- cl.(d).size - n;
                    cl.(r).members <- moved :: cl.(r).members;
                    cl.(r).size <- cl.(r).size + n;
                    cl.(r).tag <- Bitset.union cl.(r).tag moved.Iter_group.tag
                  end));
          loop ()
        end
      end
    end
  in
  loop ();
  (* Polish: the threshold is the *tolerable* imbalance; keep making
     affinity-best moves from the fullest to the emptiest cluster while
     they strictly shrink the spread, so the typical result sits well
     inside the window (a contiguous-chunk baseline is perfectly
     balanced, and wall-clock time follows the slowest core). *)
  let polish_guard = ref ((4 * total_members) + 64) in
  let continue_polish = ref true in
  while !continue_polish && !polish_guard > 0 do
    Ctam_util.Deadline.check ();
    decr polish_guard;
    continue_polish := false;
    let dmax = ref 0 and dmin = ref 0 in
    for i = 1 to k - 1 do
      let excess i = float_of_int cl.(i).size -. avg i in
      if excess i > excess !dmax then dmax := i;
      if excess i < excess !dmin then dmin := i
    done;
    let d = !dmax and r = !dmin in
    if d <> r then begin
      let excess_d = float_of_int cl.(d).size -. avg d in
      let deficit_r = avg r -. float_of_int cl.(r).size in
      let want = int_of_float (Float.min excess_d deficit_r) in
      (* Stop near-parity: chasing the last fraction of a percent only
         sprays tiny split fragments across clusters, destroying the
         locality the clustering built. *)
      let eps =
        max 1 (int_of_float (0.005 *. avg d))
      in
      if want >= eps then begin
        (* Prefer a whole group no larger than the need; else split. *)
        let best = ref None in
        List.iter
          (fun g ->
            if Iter_group.size g <= want then begin
              let w = Bitset.dot g.Iter_group.tag cl.(r).tag in
              let dist =
                abs (Ctam_poly.Iterset.min_key g.Iter_group.iters
                     - cl.(r).first_key)
              in
              match !best with
              | Some (_, w', dist') when w' > w || (w' = w && dist' <= dist) ->
                  ()
              | _ -> best := Some (g, w, dist)
            end)
          cl.(d).members;
        match !best with
        | Some (g, _, _) ->
            cl.(d).members <- List.filter (fun x -> x != g) cl.(d).members;
            cl.(d).size <- cl.(d).size - Iter_group.size g;
            cl.(r).members <- g :: cl.(r).members;
            cl.(r).size <- cl.(r).size + Iter_group.size g;
            cl.(r).tag <- Bitset.union cl.(r).tag g.Iter_group.tag;
            cl.(r).first_key <-
              min cl.(r).first_key
                (Ctam_poly.Iterset.min_key g.Iter_group.iters);
            continue_polish := true
        | None when not allow_splits -> ()
        | None -> (
            (* All groups too big: split the best one. *)
            let pick = ref None in
            List.iter
              (fun g ->
                if Iter_group.size g > want then begin
                  let w = Bitset.dot g.Iter_group.tag cl.(r).tag in
                  let dist =
                    abs (Ctam_poly.Iterset.min_key g.Iter_group.iters
                         - cl.(r).first_key)
                  in
                  match !pick with
                  | Some (_, w', dist') when w' > w || (w' = w && dist' <= dist)
                    -> ()
                  | _ -> pick := Some (g, w, dist)
                end)
              cl.(d).members;
            match !pick with
            | None -> ()
            | Some (g, _, _) ->
                let moved, kept = Iter_group.split_at want g in
                cl.(d).members <-
                  kept :: List.filter (fun x -> x != g) cl.(d).members;
                cl.(d).size <- cl.(d).size - want;
                cl.(r).members <- moved :: cl.(r).members;
                cl.(r).size <- cl.(r).size + want;
                cl.(r).tag <- Bitset.union cl.(r).tag moved.Iter_group.tag;
                continue_polish := true)
      end
    end
  done;
  Array.map cluster_groups cl

(* --- hierarchical distribution ------------------------------------- *)

let subtree_cores tree = List.length (Topology.cores_under tree)

(* Number of clustering stages on the deepest root-to-core path (only
   nodes with more than one child force a clustering decision). *)
let clustering_depth topo =
  let rec depth = function
    | Topology.Core _ -> 0
    | Topology.Cache (_, [ only ]) -> depth only
    | Topology.Cache (_, children) ->
        1 + List.fold_left (fun acc c -> max acc (depth c)) 0 children
  in
  let forest = topo.Topology.roots in
  let base = List.fold_left (fun acc r -> max acc (depth r)) 0 forest in
  if List.length forest > 1 then base + 1 else base

type dependence_mode = Synchronize | Cluster

(* Paper section 3.5.2, first option: make every weakly-connected set of
   dependent groups a single indivisible unit ("associating an infinite
   edge weight"), so no inter-core synchronization is ever needed. *)
let fuse_dependent ~dep_graph groups =
  let n = Array.length groups in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter
    (fun (a, b) -> if a < n && b < n then union a b)
    (Ctam_deps.Dep_graph.edges dep_graph);
  let members = Hashtbl.create ~random:false 16 in
  Array.iteri
    (fun i g ->
      let r = find i in
      Hashtbl.replace members r
        (g :: (try Hashtbl.find members r with Not_found -> [])))
    groups;
  let fused =
    Hashtbl.fold
      (fun _root gs acc ->
        match gs with
        | [ g ] -> g :: acc
        | g0 :: rest ->
            List.fold_left
              (fun acc g ->
                {
                  acc with
                  Iter_group.tag = Bitset.union acc.Iter_group.tag g.Iter_group.tag;
                  iters =
                    Ctam_poly.Iterset.union acc.Iter_group.iters
                      g.Iter_group.iters;
                })
              g0 rest
            :: acc
        | [] -> acc)
      members []
  in
  (* Keep deterministic order and dense ids. *)
  let fused =
    List.sort
      (fun a b ->
        compare
          (Ctam_poly.Iterset.min_key a.Iter_group.iters)
          (Ctam_poly.Iterset.min_key b.Iter_group.iters))
      fused
  in
  Array.of_list (List.mapi (fun i g -> { g with Iter_group.id = i }) fused)

let run ?(balance_threshold = default_balance_threshold)
    ?(dependence_mode = Synchronize) ?dep_graph topo groups =
  let groups, allow_splits =
    match (dependence_mode, dep_graph) with
    | Cluster, Some dg when not (Ctam_deps.Dep_graph.is_empty dg) ->
        (* Fused dependence clusters are indivisible: splitting them
           would reintroduce a cross-core dependence without any
           synchronization to protect it. *)
        (fuse_dependent ~dep_graph:dg groups, false)
    | (Cluster | Synchronize), _ -> (groups, true)
  in
  let result = Array.make topo.Topology.num_cores [] in
  (* Imbalance compounds multiplicatively across clustering levels;
     dividing the tolerance by the level count keeps the *global*
     per-core imbalance within the requested threshold. *)
  let levels = max 1 (clustering_depth topo) in
  let level_threshold = balance_threshold /. float_of_int levels in
  let rec assign tree groups =
    match tree with
    | Topology.Core c -> result.(c) <- groups
    | Topology.Cache (_, [ only ]) -> assign only groups
    | Topology.Cache (_, children) -> distribute_children children groups
  and distribute_children children groups =
    let k = List.length children in
    let clusters = Array.of_list (cluster_into ~allow_splits k groups) in
    let weights = Array.of_list (List.map subtree_cores children) in
    let balanced =
      balance ~allow_splits ~threshold:level_threshold ~weights clusters
    in
    List.iteri (fun i child -> assign child balanced.(i)) children
  in
  (match topo.Topology.roots with
  | [ root ] -> assign root (Array.to_list groups)
  | roots ->
      (* Memory is the conceptual root over multiple last-level caches. *)
      distribute_children roots (Array.to_list groups));
  result
