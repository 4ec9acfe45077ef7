open Ctam_arch
open Ctam_ir
open Ctam_cachesim
open Ctam_core
open Ctam_workloads

(* The simulator runs the paper's machines at 1/16 capacity with
   proportionally sized working sets (see DESIGN.md): the data-size to
   cache-size ratios, which drive all the effects, are preserved.
   Quick mode halves the linear workload size (data / 4) and scales the
   machine by a further 4x, keeping the same ratios at a quarter of the
   simulation cost. *)
let machine_scale ~quick ~scale =
  (* [scale] (bench --scale / scale-sweep) overrides the quick/full
     capacity divisor wholesale. *)
  match scale with Some s -> s | None -> if quick then 64 else 16

let dunnington ~quick ~scale =
  Machines.dunnington ~scale:(machine_scale ~quick ~scale) ()

let commercial ~quick ~scale =
  Machines.commercial ~scale:(machine_scale ~quick ~scale) ()

(* Quick mode also trims the suite to six kernels spanning the access
   classes (stencil, transpose, shared vector, strided dependence,
   dependence relaxation, scanline). *)
let apps ~quick =
  if quick then
    [ Suite.galgel; Suite.equake; Suite.cg; Suite.sp; Suite.facesim;
      Suite.povray ]
  else Suite.all

let program_of ~quick k =
  if quick then Kernel.program ~size:(max 32 (k.Kernel.default_size / 2)) k
  else Kernel.program k

(* --- the grid ------------------------------------------------------ *)

type row = { name : string; machine : Topology.t; program : Program.t }
type variant = { label : string; run : Topology.t -> Program.t -> Stats.t }

let scheme ?params ?map_topo ?label s =
  {
    label = Option.value label ~default:(Mapping.scheme_name s);
    run = (fun machine program -> Mapping.run ?params ?map_topo s ~machine program);
  }

let base = scheme Mapping.Base
let topology_aware = scheme Mapping.Topology_aware

(* The program as [compile] maps it for [src], run on the row's machine:
   ported there (thread t on core t mod cores) unless that is [src]. *)
let version src compile =
  {
    label = src.Topology.name ^ " version";
    run =
      (fun target program ->
        let c = compile program in
        Mapping.simulate
          (if src.Topology.name = target.Topology.name then c
           else Mapping.port c ~machine:target));
  }

(* The suite's kernels (or [ks]) as rows on [machine]. *)
let kernels ~quick ?(ks = apps ~quick) machine =
  List.map
    (fun k -> { name = k.Kernel.name; machine; program = program_of ~quick k })
    ks

let grid ?(jobs = 1) rows variants =
  let cells =
    Array.of_list
      (Ctam_util.Parallel.map ~domains:jobs
         (fun (r, v) -> v.run r.machine r.program)
         (List.concat_map (fun r -> List.map (fun v -> (r, v)) variants) rows))
  in
  let n = List.length variants in
  List.mapi (fun i r -> (r, List.init n (fun j -> cells.((i * n) + j)))) rows

let normalize ?(baseline = List.hd) cells =
  let b = float_of_int (baseline cells).Stats.cycles in
  List.map (fun (s : Stats.t) -> float_of_int s.Stats.cycles /. b) cells

(* --- reports ------------------------------------------------------- *)

let report title blocks = { Report.title; blocks }

let table ?heading ?(labels = [ "application" ]) ?(geomean = false) columns
    rows =
  Report.Table { heading; labels; columns; rows; geomean }

let headers variants = List.map (fun v -> (v.label, Report.f2)) variants

(* One table of grids over the same rows, side by side, each normalized
   to its first variant (the baseline), whose column is left out. *)
let vs_base ?heading grids =
  let normalized =
    List.map
      (fun (rows, variants) ->
        List.map
          (fun (r, cells) -> ([ r.name ], List.tl (normalize cells)))
          (grid rows variants))
      grids
  in
  table ?heading
    (List.concat_map (fun (_, variants) -> headers (List.tl variants)) grids)
    (List.mapi
       (fun i (labels, _) ->
         (labels, List.concat_map (fun g -> snd (List.nth g i)) normalized))
       (List.hd normalized))

(* ------------------------------------------------------------------ *)

type runner = ?quick:bool -> ?scale:int -> unit -> Report.t

let table1 ?quick:_ ?scale:_ () =
  report "Table 1: machine parameters"
    (List.map
       (fun topo -> Report.Text (Fmt.str "%a" Topology.pp topo))
       (Machines.commercial ())
    @ [
        Text
          (Printf.sprintf "(experiments use the same topologies at 1/%d capacity)"
             (machine_scale ~quick:false ~scale:None));
      ])

let table2 ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  report "Table 2: applications (single-core Dunnington cycles)"
    [
      table
        ~labels:[ "application"; "suite"; "kind" ]
        [ ("data", "%.1f KB"); ("1-core cycles", "%.0f") ]
        (List.map
           (fun k ->
             let program = program_of ~quick k in
             ( [
                 k.Kernel.name;
                 k.Kernel.origin;
                 (match k.Kernel.kind with
                 | Kernel.Parallel_bench -> "parallel"
                 | Kernel.Sequential_app -> "sequential");
               ],
               [
                 float_of_int (Program.data_bytes program) /. 1024.;
                 float_of_int (Mapping.simulate_serial ~machine program).cycles;
               ] ))
           (apps ~quick));
    ]

let fig2 ?(quick = false) ?scale () =
  let program = program_of ~quick Suite.galgel in
  let machines = commercial ~quick ~scale in
  let versions =
    List.map
      (fun src ->
        let c = Mapping.compile Mapping.Combined ~machine:src program in
        version src (fun _ -> c))
      machines
  in
  let fastest cells =
    List.fold_left
      (fun (b : Stats.t) (s : Stats.t) -> if s.cycles < b.cycles then s else b)
      (List.hd cells) cells
  in
  report
    "Figure 2: galgel versions (columns) executed on machines (rows), \
     normalized to the best version per machine"
    [
      table ~labels:[ "executed on" ] (headers versions)
        (List.map
           (fun (r, cells) -> ([ r.name ], normalize ~baseline:fastest cells))
           (grid
              (List.map
                 (fun m -> { name = m.Topology.name; machine = m; program })
                 machines)
              versions));
    ]

let fig13 ?(quick = false) ?scale () =
  let variants = [ base; scheme Mapping.Base_plus; topology_aware ] in
  let grids =
    List.map
      (fun m -> (m, grid (kernels ~quick m) variants))
      (commercial ~quick ~scale)
  in
  (* Miss reductions on Dunnington (text of §4.2). *)
  let reduction level =
    let misses pick =
      List.fold_left
        (fun a ((m : Topology.t), g) ->
          if m.name <> "Dunnington" then a
          else
            List.fold_left
              (fun a (_, cells) -> a + Stats.misses_at (pick cells) level)
              a g)
        0 grids
    in
    let b = misses List.hd and t = misses (fun cells -> List.nth cells 2) in
    if b = 0 then 0. else 100. *. float_of_int (b - t) /. float_of_int b
  in
  report "Figure 13: normalized execution cycles (Base / Base+ / TopologyAware)"
    (List.map
       (fun ((m : Topology.t), g) ->
         table ~heading:m.name ~geomean:true (headers variants)
           (List.map (fun (r, cells) -> ([ r.name ], normalize cells)) g))
       grids
    @ [
        Text
          (Printf.sprintf
             "\nDunnington miss reductions of TopologyAware over Base: L1 \
              %.0f%%, L2 %.0f%%, L3 %.0f%%"
             (reduction 1) (reduction 2) (reduction 3));
      ])

let fig14 ?(quick = false) ?scale () =
  let machines = commercial ~quick ~scale in
  let ported (target : Topology.t) =
    List.filter_map
      (fun (src : Topology.t) ->
        if src.name = target.name then None
        else
          Some (version src (Mapping.compile Mapping.Topology_aware ~machine:src)))
      machines
  in
  report "Figure 14: cross-machine versions, normalized to the native version"
    (List.map
       (fun (target : Topology.t) ->
         vs_base ~heading:("Execution on " ^ target.name)
           [ (kernels ~quick target, topology_aware :: ported target) ])
       machines)

let fig15 ?(quick = false) ?scale () =
  report
    "Figure 15: local scheduling in isolation and combined (Dunnington, \
     normalized to Base)"
    [
      vs_base
        [
          ( kernels ~quick (dunnington ~quick ~scale),
            [ base; topology_aware; scheme Mapping.Local; scheme Mapping.Combined ] );
        ];
    ]

let fig16 ?(quick = false) ?scale () =
  let block bs =
    scheme
      ~params:{ Mapping.default_params with block_size = bs }
      ~label:(Printf.sprintf "%dB" bs) Mapping.Topology_aware
  in
  report
    "Figure 16: data-block-size sensitivity (TopologyAware on Dunnington, \
     normalized to Base)"
    [
      vs_base
        [
          ( kernels ~quick (dunnington ~quick ~scale),
            base :: List.map block [ 256; 512; 1024; 2048; 4096; 8192 ] );
        ];
    ]

let fig17 ?(quick = false) ?scale () =
  let at n =
    let machine =
      Machines.dunnington_scaled_cores ~scale:(machine_scale ~quick ~scale)
        ~num_cores:n ()
    in
    ( kernels ~quick machine,
      [
        base;
        scheme ~label:(Printf.sprintf "B+/%dc" n) Mapping.Base_plus;
        scheme ~label:(Printf.sprintf "TA/%dc" n) Mapping.Topology_aware;
      ] )
  in
  report "Figure 17: core-count scaling (normalized to Base at each count)"
    [ vs_base (List.map at [ 12; 18; 24 ]) ]

let fig18 ?(quick = false) ?scale () =
  let at (label, machine) =
    (kernels ~quick machine, [ base; scheme ~label Mapping.Topology_aware ])
  in
  let s = machine_scale ~quick ~scale in
  report
    "Figure 18: deeper on-chip hierarchies (TopologyAware normalized to \
     Base per machine)"
    [
      vs_base
        (List.map at
           [
             ("Default", dunnington ~quick ~scale);
             ("Arch-I", Machines.arch_i ~scale:s ());
             ("Arch-II", Machines.arch_ii ~scale:s ());
           ]);
    ]

let fig19 ?(quick = false) ?scale () =
  report
    "Figure 19: halved cache capacities (Dunnington/2, normalized to Base)"
    [
      vs_base
        [
          ( kernels ~quick (Machines.halve_caches (dunnington ~quick ~scale)),
            [ base; scheme Mapping.Base_plus; topology_aware ] );
        ];
    ]

(* The optimal search simulates many candidate mappings, so this
   experiment, like the paper's ILP (23-hour runs) the most expensive,
   always runs the reduced instances, whatever [quick] says. *)
let fig20 ?quick:_ ?scale () =
  let machine = Machines.arch_i ~scale:(machine_scale ~quick:true ~scale) () in
  let levels label map_topo = scheme ~map_topo ~label Mapping.Topology_aware in
  let optimal machine program =
    (Optimal.search ~budget:60 ~machine program).Optimal.stats
  in
  report
    "Figure 20: level-subset mappings and optimal search (Arch-I, \
     normalized to Base; reduced instances)"
    [
      vs_base
        [
          ( kernels ~quick:true machine,
            [
              base;
              levels "L1+L2" (Topology.truncate_levels 2 machine);
              levels "L1+L2+L3" (Topology.truncate_levels 3 machine);
              levels "L1..L4" machine;
              { label = "Optimal"; run = optimal };
            ] );
        ];
    ]

let alphabeta ?(quick = false) ?scale () =
  let point (alpha, beta) =
    scheme
      ~params:{ Mapping.default_params with alpha; beta }
      ~label:(Printf.sprintf "a=%.2f b=%.2f" alpha beta)
      Mapping.Combined
  in
  report
    "alpha/beta sensitivity of the combined scheme (Dunnington, normalized \
     to Base)"
    [
      vs_base
        [
          ( kernels ~quick (dunnington ~quick ~scale),
            base
            :: List.map point
                 [ (0.0, 1.0); (0.25, 0.75); (0.5, 0.5); (0.75, 0.25); (1.0, 0.0) ] );
        ];
    ]

let overhead ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  let row k =
    let prog = program_of ~quick k in
    let compile name scheme =
      ignore
        (Ctam_telemetry.Span.with_ name (fun () ->
             Mapping.compile scheme ~machine prog))
    in
    let (), spans =
      Ctam_telemetry.Span.collect (fun () ->
          compile "base" Mapping.Base;
          compile "topology-aware" Mapping.Topology_aware)
    in
    let t_base = List.assoc "base" spans in
    let t_topo = List.assoc "topology-aware" spans in
    ( [ k.Kernel.name ],
      [ t_base; t_topo; 100. *. (t_topo -. t_base) /. Float.max 1e-6 t_base ] )
  in
  report
    "Compilation overhead of the topology-aware mapping (cf. paper's \
     +65..94% over parallelization alone)"
    [
      table
        [
          ("parallelize only", "%.2fs");
          ("topology-aware", "%.2fs");
          ("overhead", "%+.0f%%");
        ]
        (List.map row (apps ~quick));
    ]

let dep_stats ?(quick = false) ?scale:_ () =
  let deps, total =
    List.fold_left
      (fun (d, t) k ->
        let p = program_of ~quick k in
        let nests = Program.parallel_nests p in
        ( d
          + List.length
              (List.filter Ctam_deps.Dep_test.nest_may_carry_deps nests),
          t + List.length nests ))
      (0, 0) (apps ~quick)
  in
  report "Dependence statistics (cf. paper: ~14% of parallel loops)"
    [
      Text
        (Printf.sprintf
           "%d of %d parallel loops carry loop-carried dependences (%.0f%%)"
           deps total
           (100. *. float_of_int deps /. float_of_int total));
    ]

let dynamic ?(quick = false) ?scale () =
  let dynamic machine program = Dynamic_sched.run ~machine program in
  report
    "Dynamic scheduling comparison (paper section 5: dynamic distribution \
     did not generate good results; normalized to Base)"
    [
      vs_base
        [
          ( kernels ~quick (dunnington ~quick ~scale),
            [ base; topology_aware; { label = "Dynamic"; run = dynamic } ] );
        ];
    ]

(* §3.5.2's two options on the dependence-carrying kernels: clustering
   dependent groups (option 1, no synchronization) vs distributing +
   synchronizing (option 2, the default).  The paper expects option 1 to
   lose parallelism when dependences are many. *)
let depmode ?(quick = false) ?scale () =
  let mode label m =
    scheme
      ~params:{ Mapping.default_params with dependence_mode = m }
      ~label Mapping.Topology_aware
  in
  report "Dependence handling options of section 3.5.2 (normalized to Base)"
    [
      vs_base
        [
          ( kernels ~quick ~ks:[ Suite.sp; Suite.facesim ] (dunnington ~quick ~scale),
            [
              base;
              mode "synchronize (opt 2)" Distribute.Synchronize;
              mode "cluster (opt 1)" Distribute.Cluster;
            ] );
        ];
    ]

let registry =
  [
    ("table1", table1); ("table2", table2); ("fig2", fig2); ("fig13", fig13);
    ("fig14", fig14); ("fig15", fig15); ("fig16", fig16); ("fig17", fig17);
    ("fig18", fig18); ("fig19", fig19); ("fig20", fig20);
    ("alphabeta", alphabeta); ("overhead", overhead); ("depstats", dep_stats);
    ("dynamic", dynamic); ("depmode", depmode);
  ]

let names = List.map fst registry

let by_name name =
  match List.assoc_opt (String.lowercase_ascii name) registry with
  | Some f -> f
  | None -> raise Not_found

(* Experiments are independent (each builds its own machines and
   hierarchies, and its grid runs serially): run them across domains
   and emit in registry order.  Only the wall-clock columns of
   [overhead] are load-sensitive; every simulated number is
   deterministic. *)
let all ?(quick = false) ?scale ?jobs () =
  Ctam_util.Parallel.map ?domains:jobs
    (fun (name, (run : runner)) -> (name, run ~quick ?scale ()))
    registry
