open Ctam_arch
open Ctam_ir
open Ctam_blocks
open Ctam_deps
open Ctam_cachesim

let default_steal_cost = 200

(* Longest-path dependence level of every group (0 = no predecessors). *)
let dependence_levels dag =
  let n = Dep_graph.num_nodes dag in
  let level = Array.make n 0 in
  List.iter
    (fun v ->
      List.iter
        (fun p -> level.(v) <- max level.(v) (level.(p) + 1))
        (Dep_graph.preds dag v))
    (Dep_graph.topo_order dag);
  level

let run ?(params = Mapping.default_params) ?(steal_cost = default_steal_cost)
    ~machine program =
  let n = machine.Topology.num_cores in
  let line =
    match Topology.caches machine with
    | p :: _ -> p.Topology.line
    | [] -> 64
  in
  let _, layout =
    Block_map.for_program ~block_size:params.Mapping.block_size ~line program
  in
  let h = Hierarchy.create machine in
  let clock = Array.make n 0 in
  let busy = Array.make n 0 in
  let total_accesses = ref 0 in
  let barriers = ref 0 in
  let barrier () =
    let tmax = Array.fold_left max 0 clock in
    Array.fill clock 0 n (tmax + Engine.barrier_cost);
    incr barriers
  in
  (* Execute a batch of streams through a central queue. *)
  let run_queue streams =
    let queue = Queue.create () in
    List.iter (fun s -> Queue.add s queue) streams;
    let current = Array.make n [||] in
    let pos = Array.make n 0 in
    let active c = pos.(c) < Array.length current.(c) in
    let refill c =
      if (not (active c)) && not (Queue.is_empty queue) then begin
        current.(c) <- Queue.pop queue;
        pos.(c) <- 0;
        (* The pull itself costs a dispatch. *)
        clock.(c) <- clock.(c) + steal_cost;
        busy.(c) <- busy.(c) + steal_cost
      end
    in
    for c = 0 to n - 1 do
      refill c
    done;
    let rec loop () =
      (* The core with the smallest clock among those with work issues
         the next access. *)
      let best = ref (-1) in
      for c = 0 to n - 1 do
        if active c && (!best < 0 || clock.(c) < clock.(!best)) then best := c
      done;
      if !best >= 0 then begin
        let c = !best in
        let addr, write = Engine.decode_access current.(c).(pos.(c)) in
        pos.(c) <- pos.(c) + 1;
        incr total_accesses;
        let lat = Hierarchy.access h ~core:c ~addr ~write in
        let cost = Engine.issue_cost + lat in
        clock.(c) <- clock.(c) + cost;
        busy.(c) <- busy.(c) + cost;
        refill c;
        loop ()
      end
    in
    loop ()
  in
  List.iter
    (fun nest ->
      if not nest.Nest.parallel then begin
        let stream = Engine.force_stream (Trace.serial layout nest) in
        Array.iter
          (fun e ->
            let addr, write = Engine.decode_access e in
            incr total_accesses;
            let lat = Hierarchy.access h ~core:0 ~addr ~write in
            clock.(0) <- clock.(0) + Engine.issue_cost + lat;
            busy.(0) <- busy.(0) + Engine.issue_cost + lat)
          stream
      end
      else begin
        let trace g =
          Engine.force_stream (Trace.of_iterset layout nest g.Iter_group.iters)
        in
        let _grouping, groups, dag =
          Mapping.grouping_for ~params ~machine program nest
        in
        if Dep_graph.is_empty dag then
          run_queue (Array.to_list groups |> List.map trace)
        else begin
          (* Dependence levels become barrier-separated batches. *)
          let levels = dependence_levels dag in
          let max_level = Array.fold_left max 0 levels in
          for l = 0 to max_level do
            let batch =
              Array.to_list groups
              |> List.filter (fun g -> levels.(g.Iter_group.id) = l)
              |> List.map trace
            in
            run_queue batch;
            if l < max_level then barrier ()
          done
        end
      end)
    program.Program.nests;
  {
    Stats.per_level = Hierarchy.level_stats h;
    mem_accesses = Hierarchy.mem_accesses h;
    total_accesses = !total_accesses;
    cycles = Array.fold_left max 0 clock;
    core_cycles = busy;
    barriers = !barriers;
  }
