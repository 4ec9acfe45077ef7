open Ctam_poly
open Ctam_arch
open Ctam_ir
open Ctam_blocks
open Ctam_cachesim

type result = { stats : Stats.t; evaluations : int; exact : bool }

let search ?(params = Mapping.default_params) ?(budget = 200)
    ?(exhaustive_limit = 20_000) ~machine program =
  let nest =
    match Program.parallel_nests program with
    | [ nest ] -> nest
    | nest :: _ ->
        Ctam_telemetry.Log.warn ~src:"optimal" (fun () ->
            Printf.sprintf "multiple parallel nests; optimizing %s"
              nest.Nest.name);
        nest
    | [] -> invalid_arg "Optimal.search: no parallel nest"
  in
  let _grouping, groups, dag =
    Mapping.grouping_for ~params ~machine program nest
  in
  let n = machine.Topology.num_cores in
  (* Pre-split very large groups so whole-group assignment is not
     structurally unbalanced (parts keep their origin id, so the
     dependence graph still applies at origin granularity). *)
  let groups =
    let total =
      Array.fold_left (fun a g -> a + Iter_group.size g) 0 groups
    in
    let cap = max 1 (total / (4 * n)) in
    let rec split g =
      if Iter_group.size g <= cap then [ g ]
      else
        let a, b = Iter_group.split g in
        split a @ split b
    in
    Array.of_list (List.concat_map split (Array.to_list groups))
  in
  let k = Array.length groups in
  let _, layout =
    Block_map.for_program
      ~block_size:params.Mapping.block_size
      ~line:
        (match Topology.caches machine with
        | p :: _ -> p.Topology.line
        | [] -> 64)
      program
  in
  let evaluations = ref 0 in
  let h = Hierarchy.create machine in
  let evaluate assignment =
    incr evaluations;
    let per_core = Array.make n [] in
    (* Keep group-id order within a core for determinism. *)
    for g = k - 1 downto 0 do
      per_core.(assignment.(g)) <- groups.(g) :: per_core.(assignment.(g))
    done;
    let sched =
      Schedule.run ~alpha:params.Mapping.alpha ~beta:params.Mapping.beta
        machine per_core dag
    in
    let phases =
      List.map
        (fun round ->
          Array.map
            (fun gs -> Engine.force_stream (Trace.of_groups layout nest gs))
            round)
        sched.Schedule.rounds
    in
    Engine.run h phases
  in
  (* Seed: the Topology-Aware distribution, reduced to whole parts by
     attributing each distributed fragment (largest first) to the part
     whose key range contains its first iteration. *)
  let seed () =
    let dist =
      Distribute.run ~balance_threshold:params.Mapping.balance_threshold
        machine groups
    in
    (* Part boundaries in iteration-key order. *)
    let bounds =
      Array.mapi (fun i g -> (Iterset.min_key g.Iter_group.iters, i)) groups
    in
    Array.sort compare bounds;
    let part_of_key key =
      (* Largest boundary <= key. *)
      let lo = ref 0 and hi = ref (Array.length bounds - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if fst bounds.(mid) <= key then lo := mid else hi := mid - 1
      done;
      snd bounds.(!lo)
    in
    let assignment = Array.make k 0 in
    let best_count = Array.make k (-1) in
    Array.iteri
      (fun core gs ->
        List.iter
          (fun g ->
            let part = part_of_key (Iterset.min_key g.Iter_group.iters) in
            let c = Iter_group.size g in
            if c > best_count.(part) then begin
              best_count.(part) <- c;
              assignment.(part) <- core
            end)
          gs)
      dist;
    assignment
  in
  let total_assignments =
    let rec pow acc i = if i = 0 then acc else
      if acc > exhaustive_limit then acc else pow (acc * n) (i - 1)
    in
    pow 1 k
  in
  if total_assignments <= exhaustive_limit then begin
    (* Exhaustive enumeration. *)
    let assignment = Array.make k 0 in
    let best_cycles = ref max_int in
    let best_stats = ref None in
    let rec go g =
      if g = k then begin
        let stats = evaluate assignment in
        if stats.Stats.cycles < !best_cycles then begin
          best_cycles := stats.Stats.cycles;
          best_stats := Some stats
        end
      end
      else
        for c = 0 to n - 1 do
          assignment.(g) <- c;
          go (g + 1)
        done
    in
    go 0;
    match !best_stats with
    | Some stats -> { stats; evaluations = !evaluations; exact = true }
    | None -> assert false
  end
  else begin
    (* First-improvement local search over relocations, seeded with the
       Topology-Aware assignment; the result can only improve on it. *)
    let assignment = seed () in
    let current = ref (evaluate assignment) in
    let rng = Random.State.make [| 0x5eed; k; n |] in
    let continue = ref true in
    while !continue && !evaluations < budget do
      continue := false;
      (* Random order over (group, core) relocations. *)
      let moves =
        Array.init (k * n) (fun i -> (i / n, i mod n))
      in
      for i = Array.length moves - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = moves.(i) in
        moves.(i) <- moves.(j);
        moves.(j) <- t
      done;
      let mi = ref 0 in
      while !mi < Array.length moves && !evaluations < budget do
        let g, c = moves.(!mi) in
        incr mi;
        if assignment.(g) <> c then begin
          let old = assignment.(g) in
          assignment.(g) <- c;
          let stats = evaluate assignment in
          if stats.Stats.cycles < !current.Stats.cycles then begin
            current := stats;
            continue := true
          end
          else assignment.(g) <- old
        end
      done
    done;
    { stats = !current; evaluations = !evaluations; exact = false }
  end
