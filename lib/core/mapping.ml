open Ctam_arch
open Ctam_ir
open Ctam_blocks
open Ctam_deps
open Ctam_cachesim

type scheme = Base | Base_plus | Local | Topology_aware | Combined

let scheme_name = function
  | Base -> "Base"
  | Base_plus -> "Base+"
  | Local -> "Local"
  | Topology_aware -> "TopologyAware"
  | Combined -> "Combined"

let scheme_id = function
  | Base -> "base"
  | Base_plus -> "base+"
  | Local -> "local"
  | Topology_aware -> "topology-aware"
  | Combined -> "combined"

let scheme_of_id = function
  | "base" -> Ok Base
  | "base+" | "baseplus" -> Ok Base_plus
  | "local" -> Ok Local
  | "topology" | "topology-aware" | "ta" -> Ok Topology_aware
  | "combined" -> Ok Combined
  | s -> Error (Printf.sprintf "unknown scheme '%s'" s)

let all_schemes = [ Base; Base_plus; Local; Topology_aware; Combined ]

type params = {
  block_size : int;
  auto_block : bool;
  balance_threshold : float;
  alpha : float;
  beta : float;
  max_groups : int;
  dependence_mode : Distribute.dependence_mode;
  tile_edge : int option;
}

let default_params =
  {
    block_size = 2048;
    auto_block = false;
    balance_threshold = Distribute.default_balance_threshold;
    alpha = Schedule.default_alpha;
    beta = Schedule.default_beta;
    max_groups = 3000;
    dependence_mode = Distribute.Synchronize;
    tile_edge = None;
  }

(* A schedule built with negative affinity weights or a non-positive
   balance threshold silently degenerates (the balancing loop can no
   longer terminate meaningfully, scores invert); reject such
   parameters up front with a message naming the offender. *)
let validate_params p =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if p.block_size <= 0 then bad "block_size must be positive (got %d)" p.block_size
  else if Float.is_nan p.alpha || p.alpha < 0. then
    bad "alpha must be a non-negative number (got %g)" p.alpha
  else if Float.is_nan p.beta || p.beta < 0. then
    bad "beta must be a non-negative number (got %g)" p.beta
  else if Float.is_nan p.balance_threshold || p.balance_threshold <= 0. then
    bad "balance_threshold must be positive (got %g)" p.balance_threshold
  else if p.max_groups <= 0 then
    bad "max_groups must be positive (got %d)" p.max_groups
  else
    match p.tile_edge with
    | Some e when e <= 0 -> bad "tile_edge must be positive (got %d)" e
    | _ -> Ok ()

type nest_info = {
  nest_name : string;
  num_groups : int;
  num_rounds : int;
  dep_edges : int;
  used_block_size : int;
}

type nest_plan = {
  plan_nest : Nest.t;
  plan_rounds : Iter_group.t list array list;
  plan_barriers : bool;
}

type compiled = {
  scheme : scheme;
  params : params;
  map_topo : Topology.t;
  machine : Topology.t;
  program : Program.t;
  layout : Layout.t;
  phases : Engine.stream_phase list;
  infos : nest_info list;
  plans : nest_plan list;
  timings : (string * float) list;
}

let l1_capacity topo =
  match Topology.path_of_core topo 0 with
  | p :: _ -> p.Topology.size_bytes
  | [] -> invalid_arg "Mapping.l1_capacity: no caches"

let line_size topo =
  match Topology.caches topo with
  | p :: _ -> p.Topology.line
  | [] -> invalid_arg "Mapping.line_size: no caches"

(* Block size selection: fixed, or the §4.1 L1-fitting rule driven by
   the first parallel nest. *)
let pick_block_size ~params ~machine program =
  if not params.auto_block then params.block_size
  else
    match Program.parallel_nests program with
    | [] -> params.block_size
    | nest :: _ ->
        let bs, _ =
          Block_size.choose ~l1_capacity:(l1_capacity machine)
            ~line:(line_size machine) nest program
        in
        bs

let grouping_with ~block_size ~line ~max_groups program nest =
  let bm, _layout = Block_map.for_program ~block_size ~line program in
  let grouping = Tags.group_capped ~max_groups nest bm in
  let dg0 = Group_deps.compute grouping in
  let groups, dag =
    if Dep_graph.is_empty dg0 then (grouping.Tags.groups, dg0)
    else Group_deps.merge_cycles grouping dg0
  in
  (grouping, groups, dag)

let grouping_for ~params ~machine program nest =
  let block_size = pick_block_size ~params ~machine program in
  grouping_with ~block_size ~line:(line_size machine)
    ~max_groups:params.max_groups program nest

(* A chunk of iterations as a pseudo-group (empty tag): baselines are
   represented in the same structural form as the topology-aware plans.
   Iteration order within a pseudo-group is lexicographic, so callers
   split order-sensitive sequences (tiles) into one pseudo-group per
   contiguous run. *)
let pseudo_group ~id iters = { Iter_group.id; tag = Bitset.create 0; iters }

(* One pseudo-group per tile, in tiled execution order. *)
let tile_pseudo_groups ~encoder ~tile ~perm iters =
  let pseudo_group ~id run =
    (* Encoding sorts the run: poll the request deadline first. *)
    Ctam_util.Deadline.check ();
    pseudo_group ~id (Ctam_poly.Iterset.of_list encoder run)
  in
  let ordered = Tiling.apply ~tile ~perm iters in
  let runs = ref [] and current = ref [] and cur_tc = ref None in
  let tc iv = Array.to_list (Array.mapi (fun k t -> iv.(k) / t) tile) in
  List.iter
    (fun iv ->
      let c = tc iv in
      (match !cur_tc with
      | Some c' when c' = c -> ()
      | None -> cur_tc := Some c
      | Some _ ->
          runs := List.rev !current :: !runs;
          current := [];
          cur_tc := Some c);
      current := iv :: !current)
    ordered;
  if !current <> [] then runs := List.rev !current :: !runs;
  List.rev !runs |> List.mapi (fun i run -> pseudo_group ~id:i run)

(* The form a compile hands out a stream in: a dense compile forces
   each cursor as it is built, so the phases hold arrays and Base+
   simulates its tile candidates in the requested form. *)
let emit ~stream s = if stream then s else Engine.dense (Engine.force_stream s)

(* Compile-phase names reported in [compiled.timings], in pipeline
   order. *)
let timing_keys = [ "group"; "distribute"; "schedule"; "trace" ]

let compile ?(params = default_params) ?map_topo ?(stream = false) scheme
    ~machine program =
  (match validate_params params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mapping.compile: " ^ msg));
  let map_topo = Option.value map_topo ~default:machine in
  let n = map_topo.Topology.num_cores in
  let timed key f =
    Ctam_util.Deadline.check ();
    Ctam_telemetry.Span.with_ key f
  in
  let plan ?(barriers = false) nest rounds =
    { plan_nest = nest; plan_rounds = rounds; plan_barriers = barriers }
  in
  let (layout, nests), spans =
    Ctam_telemetry.Span.collect @@ fun () ->
    let block_size =
      timed "group" (fun () -> pick_block_size ~params ~machine:map_topo program)
    in
    let line = line_size map_topo in
    let _bm, layout = Block_map.for_program ~block_size ~line program in
    (* A nest's summary: one round per phase of its plan. *)
    let info ?(dep_edges = 0) p ~num_groups =
      {
        nest_name = p.plan_nest.Nest.name;
        num_groups;
        num_rounds = List.length p.plan_rounds;
        dep_edges;
        used_block_size = block_size;
      }
    in
    (* The streams of a plan that runs its groups as they stand: each
       core's groups of each round, chained in order. *)
    let phases_of_plan p =
      timed "trace" (fun () ->
          let trace gs = emit ~stream (Trace.of_groups layout p.plan_nest gs) in
          List.map (Array.map trace) p.plan_rounds)
    in
    let map_nest nest =
      if not nest.Nest.parallel then begin
        (* Serial nest: core 0 executes it as its own phase, in program
           order. *)
        let phase = Array.make n (Engine.dense [||]) in
        phase.(0) <-
          timed "trace" (fun () -> emit ~stream (Trace.serial layout nest));
        let round = Array.make n [] in
        round.(0) <-
          timed "distribute" (fun () ->
              let dom = nest.Nest.domain in
              let encoder = Ctam_poly.Iterset.encoder_of_domain dom in
              [ pseudo_group ~id:0 (Ctam_poly.Iterset.of_domain encoder dom) ]);
        let p = plan nest [ round ] in
        (info p ~num_groups:1, p, [ phase ])
      end
      else
        (* The original parallel code must synchronize a loop with
           carried dependences too: there Base becomes the default
           chunk distribution with dependence-only scheduling and
           barrier rounds.  Intra-core reordering is
           dependence-constrained, so Base+ runs as this synchronized
           Base on such nests (the paper's Base+ transformations must
           preserve dependences). *)
        let synchronized =
          (scheme = Base || scheme = Base_plus)
          && timed "group" (fun () -> Dep_test.nest_may_carry_deps nest)
        in
        match scheme with
        | Base when not synchronized ->
            let round =
              timed "distribute" (fun () ->
                  Array.mapi
                    (fun c s ->
                      if Ctam_poly.Iterset.is_empty s then []
                      else [ pseudo_group ~id:c s ])
                    (Baselines.block_partition ~n nest))
            in
            let p = plan nest [ round ] in
            (info p ~num_groups:n, p, phases_of_plan p)
        | Base_plus when not synchronized ->
            (* Permutation and tiling reorder each chunk: decode it. *)
            let sets, chunks =
              timed "distribute" (fun () ->
                  let sets = Baselines.block_partition ~n nest in
                  (sets, Array.map Ctam_poly.Iterset.to_list sets))
            in
            let perm =
              timed "schedule" (fun () -> Permute.best_order layout nest)
            in
            (* The paper selects the best-performing tile size by
               search; candidates include "untiled but permuted" so
               Base+ never loses to a plain permutation.  A
               [params.tile_edge] override (the autotuner's knob)
               replaces the search with that single forced edge.  The
               order is chosen by simulating each candidate's streams,
               so this plan builds its own. *)
            let candidates =
              match params.tile_edge with
              | Some e -> [ Some e ]
              | None ->
                  let t0 =
                    timed "schedule" (fun () ->
                        Tiling.choose_tile ~l1_bytes:(l1_capacity map_topo)
                          layout nest)
                  in
                  [ None; Some t0; Some (max 4 (t0 / 2)) ]
            in
            let phase_for tile_opt =
              Array.map
                (fun iters ->
                  let ordered =
                    match tile_opt with
                    | None -> Permute.sort_iters perm iters
                    | Some edge ->
                        let tile = Tiling.uniform (Nest.depth nest) edge in
                        Tiling.apply ~tile ~perm iters
                  in
                  emit ~stream (Trace.of_iters layout nest ordered))
                chunks
            in
            let best_tile, best_phase =
              timed "trace" (fun () ->
                  let h = Hierarchy.create map_topo in
                  List.map
                    (fun t ->
                      let phase = phase_for t in
                      let stats = Engine.run_streams h [ phase ] in
                      (stats.Stats.cycles, (t, phase)))
                    candidates
                  |> List.sort (fun (a, _) (b, _) -> compare a b)
                  |> List.hd |> snd)
            in
            let round =
              timed "schedule" (fun () ->
                  Array.map2
                    (fun s iters ->
                      if Ctam_poly.Iterset.is_empty s then []
                      else
                        match best_tile with
                        | None -> [ pseudo_group ~id:0 s ]
                        | Some edge ->
                            tile_pseudo_groups
                              ~encoder:(Ctam_poly.Iterset.encoder s)
                              ~tile:(Tiling.uniform (Nest.depth nest) edge)
                              ~perm iters)
                    sets chunks)
            in
            let p = plan nest [ round ] in
            (info p ~num_groups:n, p, [ best_phase ])
        | Base | Base_plus | Local | Topology_aware | Combined ->
            let _grouping, groups, dag =
              timed "group" (fun () ->
                  grouping_with ~block_size ~line
                    ~max_groups:params.max_groups program nest)
            in
            let assignment =
              timed "distribute" (fun () ->
                  match scheme with
                  | Base | Base_plus | Local ->
                      Baselines.default_assignment ~topo:map_topo groups
                  | Topology_aware | Combined ->
                      Distribute.run
                        ~balance_threshold:params.balance_threshold
                        ~dependence_mode:params.dependence_mode
                        ~dep_graph:dag map_topo groups)
            in
            (* Under the clustering option every dependent set sits on
               one core and runs in sequential order, so no barriers
               (and no dependence constraints) remain. *)
            let dag =
              match scheme with
              | (Topology_aware | Combined)
                when params.dependence_mode = Distribute.Cluster
                     && not (Dep_graph.is_empty dag) ->
                  Dep_graph.create 0
              | _ -> dag
            in
            let alpha, beta =
              match scheme with
              | Base | Base_plus | Topology_aware ->
                  (0., 0.) (* dependence-only order *)
              | Local | Combined -> (params.alpha, params.beta)
            in
            let sched =
              timed "schedule" (fun () ->
                  Schedule.run ~alpha ~beta map_topo assignment dag)
            in
            (* Figure 7's barriers enforce dependences; on a
               dependence-free nest the rounds collapse into one phase
               whose per-core order keeps the round-robin alignment
               (real barriers would only add noise: each round then
               waits for its slowest core).  Synchronized Base keeps
               its rounds. *)
            let p =
              if synchronized || not (Dep_graph.is_empty dag) then
                plan ~barriers:true nest sched.Schedule.rounds
              else plan nest [ Schedule.per_core sched ]
            in
            ( info p ~num_groups:(Array.length groups)
                ~dep_edges:(Dep_graph.num_edges dag),
              p,
              phases_of_plan p )
    in
    (layout, List.map map_nest program.Program.nests)
  in
  let timings =
    List.map
      (fun k ->
        ( k,
          List.fold_left
            (fun acc (name, s) -> if name = k then acc +. s else acc)
            0. spans ))
      timing_keys
  in
  (* Every compile — including the hundreds a tune sweep performs —
     lands in ctam_phase_seconds{phase="mapping.*"}. *)
  if Ctam_telemetry.Metrics.enabled () then
    List.iter
      (fun (k, seconds) ->
        Ctam_telemetry.Metrics.Histogram.(
          observe (series Ctam_telemetry.Profile.seconds [ "mapping." ^ k ]))
          seconds)
      timings;
  {
    scheme;
    params;
    map_topo;
    machine;
    program;
    layout;
    phases = List.concat_map (fun (_, _, phases) -> phases) nests;
    infos = List.map (fun (info, _, _) -> info) nests;
    plans = List.map (fun (_, p, _) -> p) nests;
    timings;
  }

(* The plans mirror the phase list exactly (one plan round per phase,
   in nest order), so group boundaries inside each core's stream can be
   reconstructed without re-tracing: a group contributes
   [|iters| * #refs] accesses. *)
let segments c =
  let uid = ref 0 in
  let legend = ref [] in
  let phase_tables =
    List.concat_map
      (fun plan ->
        let nrefs = List.length (Nest.refs plan.plan_nest) in
        List.map
          (fun round ->
            Array.map
              (fun groups ->
                let pos = ref 0 in
                List.map
                  (fun (g : Iter_group.t) ->
                    let id = !uid in
                    incr uid;
                    legend := (id, (plan.plan_nest.Nest.name, g.Iter_group.id)) :: !legend;
                    let start = !pos in
                    pos :=
                      !pos + (Ctam_poly.Iterset.cardinal g.Iter_group.iters * nrefs);
                    (start, id))
                  groups
                |> Array.of_list)
              round)
          plan.plan_rounds)
      c.plans
  in
  (phase_tables, List.rev !legend)

let port c ~machine =
  let n_to = machine.Topology.num_cores in
  let phases =
    List.map
      (fun phase ->
        let streams = Array.make n_to [] in
        Array.iteri
          (fun t s -> streams.(t mod n_to) <- s :: streams.(t mod n_to))
          phase;
        Array.map
          (fun parts -> Engine.stream_concat (List.rev parts))
          streams)
      c.phases
  in
  { c with machine; phases }

let forced_phases c = List.map Engine.force_phase c.phases

let simulate ?probe ?max_cycles ?sample_sets ?memo c =
  let h = Hierarchy.create ?probe ?sample_sets c.machine in
  Engine.run_streams ?max_cycles ?memo h c.phases

let run ?params ?map_topo ?probe ?stream ?sample_sets ?memo scheme ~machine
    program =
  simulate ?probe ?sample_sets ?memo
    (compile ?params ?map_topo ?stream scheme ~machine program)

let simulate_serial ~machine program =
  (* One core executes all nests back to back, original order. *)
  let layout =
    Layout.of_program ~align:(line_size machine) program
  in
  let stream =
    Engine.force_stream
      (Engine.stream_concat
         (List.map (Trace.serial layout) program.Program.nests))
  in
  let h = Hierarchy.create machine in
  Engine.run_serial h stream
