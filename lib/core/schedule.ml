open Ctam_arch
open Ctam_blocks
open Ctam_deps

type t = {
  rounds : Iter_group.t list array list;
  num_cores : int;
}

let default_alpha = 0.5
let default_beta = 0.5

(* Pending groups live in a fixed array (assignment order) with
   tombstones: picking a group clears one flag instead of rebuilding a
   list, and [first] skips the dead prefix.  Scans still visit the
   array in assignment order, so score ties resolve exactly as the
   seed's list traversal did. *)
type core_state = {
  groups : Iter_group.t array;          (* assignment order, fixed *)
  alive : bool array;                   (* still pending? *)
  mutable first : int;                  (* lowest possibly-alive index *)
  mutable live : int;                   (* number of alive entries *)
  mutable last : Iter_group.t option;   (* last group ever scheduled here *)
  mutable iters : int;                  (* total iterations scheduled *)
}

let run ?(alpha = default_alpha) ?(beta = default_beta) ?quantum topo
    assignment dg =
  let n = topo.Topology.num_cores in
  if Array.length assignment <> n then invalid_arg "Schedule.run: assignment";
  let total_iters =
    Array.fold_left
      (fun acc gs ->
        List.fold_left (fun acc g -> acc + Iter_group.size g) acc gs)
      0 assignment
  in
  (* Rounds advance in fixed-size work quanta so the horizontal
     (cross-core) affinity term tracks concurrent progress; ~32 rounds
     keeps barrier overhead negligible while preserving alignment. *)
  let quantum =
    match quantum with
    | Some q ->
        if q < 1 then invalid_arg "Schedule.run: quantum";
        q
    | None -> max 1 (total_iters / (max 1 n) / 32)
  in
  (* Sharing domains at the first shared cache level; cores outside any
     shared cache form singleton domains. *)
  let domains =
    match Topology.first_shared_level topo with
    | Some l ->
        let doms = Topology.sharing_domains topo l in
        let covered = List.concat doms in
        doms
        @ (List.init n Fun.id
          |> List.filter (fun c -> not (List.mem c covered))
          |> List.map (fun c -> [ c ]))
    | None -> List.init n (fun c -> [ c ])
  in
  let states =
    Array.map
      (fun groups ->
        let arr = Array.of_list groups in
        {
          groups = arr;
          alive = Array.make (Array.length arr) true;
          first = 0;
          live = Array.length arr;
          last = None;
          iters = 0;
        })
      assignment
  in
  (* Origin-granularity dependence tracking: a group unit is legal when
     every predecessor origin is fully scheduled in earlier rounds. *)
  let norigins = Dep_graph.num_nodes dg in
  let origin_total = Array.make (max 1 norigins) 0 in
  let origin_done_prev = Array.make (max 1 norigins) 0 in
  let origin_done_curr = Array.make (max 1 norigins) 0 in
  Array.iter
    (List.iter (fun g ->
         if g.Iter_group.id < norigins then
           origin_total.(g.Iter_group.id) <- origin_total.(g.Iter_group.id) + 1))
    assignment;
  let legal g =
    g.Iter_group.id >= norigins
    || List.for_all
         (fun p -> origin_done_prev.(p) >= origin_total.(p))
         (Dep_graph.preds dg g.Iter_group.id)
  in
  let score ~x ~y g =
    let h =
      match x with
      | Some gx -> alpha *. float_of_int (Iter_group.dot g gx)
      | None -> 0.
    in
    let v =
      match y with
      | Some gy -> beta *. float_of_int (Iter_group.dot g gy)
      | None -> 0.
    in
    h +. v
  in
  (* Pick the best legal pending group of [st] under scorer [f];
     remove and return it. *)
  let take st f =
    (* Ties prefer the earliest iterations (sequential order), which
       preserves spatial locality when affinity cannot discriminate.
       A pick scores every pending group: poll the request deadline
       once per pick. *)
    Ctam_util.Deadline.check ();
    let m = Array.length st.groups in
    while st.first < m && not st.alive.(st.first) do
      st.first <- st.first + 1
    done;
    let best = ref None in
    for i = st.first to m - 1 do
      if st.alive.(i) then begin
        let g = st.groups.(i) in
        if legal g then begin
          let s = f g in
          let key = Ctam_poly.Iterset.min_key g.Iter_group.iters in
          match !best with
          | Some (_, _, s', k') when s' > s || (s' = s && k' <= key) -> ()
          | _ -> best := Some (i, g, s, key)
        end
      end
    done;
    match !best with
    | None -> None
    | Some (i, g, _, _) ->
        st.alive.(i) <- false;
        st.live <- st.live - 1;
        Some g
  in
  let least_ones st =
    take st (fun g -> -.float_of_int (Bitset.count g.Iter_group.tag))
  in
  let rounds = ref [] in
  let any_pending () =
    Array.exists (fun st -> st.live > 0) states
  in
  let round_index = ref 0 in
  let guard = ref 0 in
  while any_pending () && !guard < 1_000_000 do
    incr guard;
    let round = Array.make n [] in
    let sched c g =
      let st = states.(c) in
      st.last <- Some g;
      st.iters <- st.iters + Iter_group.size g;
      round.(c) <- g :: round.(c);
      if g.Iter_group.id < norigins then
        origin_done_curr.(g.Iter_group.id) <-
          origin_done_curr.(g.Iter_group.id) + 1
    in
    List.iter
      (fun dom ->
        let dom = Array.of_list dom in
        Array.iteri
          (fun di c ->
            let st = states.(c) in
            (* Each core schedules legal groups in affinity order up to
               one work quantum per round (Figure 8's one-group rounds,
               generalized to balanced work quanta).  The very first
               pick of a domain's first core takes the group with the
               fewest blocks. *)
            let round_start = st.iters in
            let continue = ref true in
            while
              !continue && st.live > 0 && st.iters - round_start < quantum
            do
              let pick =
                if !round_index = 0 && di = 0 && st.last = None then
                  least_ones st
                else
                  let x = if di = 0 then None else states.(dom.(di - 1)).last in
                  take st (fun g -> score ~x ~y:st.last g)
              in
              match pick with
              | Some g -> sched c g
              | None -> continue := false
            done)
          dom)
      domains;
    (* Barrier: everything scheduled this round becomes visible. *)
    Array.iteri
      (fun o c ->
        origin_done_prev.(o) <- origin_done_prev.(o) + c;
        origin_done_curr.(o) <- 0)
      origin_done_curr;
    let round = Array.map List.rev round in
    if Array.exists (fun l -> l <> []) round then
      rounds := round :: !rounds;
    incr round_index
  done;
  if any_pending () then
    (* Should be impossible (the DG is acyclic over origins); fail loud
       rather than drop iterations. *)
    invalid_arg "Schedule.run: could not schedule all groups";
  { rounds = List.rev !rounds; num_cores = n }

let per_core t =
  let acc = Array.make t.num_cores [] in
  List.iter
    (fun round ->
      Array.iteri (fun c gs -> acc.(c) <- List.rev_append (List.rev gs) acc.(c)) round)
    (List.rev t.rounds);
  acc

let num_rounds t = List.length t.rounds

let respects_deps t dg =
  let norigins = Dep_graph.num_nodes dg in
  let total = Array.make (max 1 norigins) 0 in
  List.iter
    (fun round ->
      Array.iter
        (List.iter (fun g ->
             if g.Iter_group.id < norigins then
               total.(g.Iter_group.id) <- total.(g.Iter_group.id) + 1))
        round)
    t.rounds;
  let done_prev = Array.make (max 1 norigins) 0 in
  let ok = ref true in
  List.iter
    (fun round ->
      let this_round = Array.make (max 1 norigins) 0 in
      Array.iter
        (List.iter (fun g ->
             let o = g.Iter_group.id in
             if o < norigins then begin
               List.iter
                 (fun p -> if done_prev.(p) < total.(p) then ok := false)
                 (Dep_graph.preds dg o);
               this_round.(o) <- this_round.(o) + 1
             end))
        round;
      Array.iteri (fun o c -> done_prev.(o) <- done_prev.(o) + c) this_round)
    t.rounds;
  !ok
