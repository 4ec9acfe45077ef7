(* ctamap: the cache-topology-aware computation mapper, as a CLI.

   Compiles loop-nest programs written in the paper's C-like DSL (or a
   built-in workload), maps them onto a cache topology with any of the
   paper's schemes, emits per-core loop code, and simulates execution
   on the machine's cache hierarchy. *)

open Cmdliner
open Ctam_ir
open Ctam_arch
open Ctam_cachesim
open Ctam_blocks
open Ctam_core

(* --- shared helpers -------------------------------------------------- *)

module J = Ctam_util.Json
module Request = Ctam_serve.Request
module Space = Ctam_tune.Space

let read_text path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* The one builder of request documents from flags.  [client] sends
   what it builds; every other command that takes PROGRAM or machine
   flags parses it in-process with [Serve.Request], the only resolver
   of user input, so a one-shot answer is the served answer by
   construction.  Each optional argument is one flag, and only the
   flags given become members.  A PROGRAM, -m or --params naming a
   file travels as the file's contents.  A [trace] request inlines its
   TRACE file; without one it carries the replay members alone, which
   is how [simtrace] streams its file. *)
let build_request ~op ?source ?machine ?scale ?policy ?scheme ?block
    ?params_file ?alpha ?beta ?balance ?stream ?sample_sets ?check
    ?strategy ?budget ?nocache ?timeout_ms ?(trace = false) ?trace_window
    ?cores ?interleave ?instr ?lossy ?fold_bits ?rebase ?split
    ?metrics_format ?limit () =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let str name = opt name (fun s -> J.String s)
  and int name = opt name (fun i -> J.Int i)
  and num name = opt name (fun f -> J.Float f)
  and bool name = opt name (fun b -> J.Bool b) in
  let text_or ~file ~name v =
    [ (if Sys.file_exists v then (file, J.String (read_text v))
       else (name, J.String v)) ]
  in
  let ( let* ) = Result.bind in
  let doc members = Ok (J.Obj (("op", J.String op) :: members)) in
  match
    match op with
    | "ping" | "stats" | "version" | "shutdown" -> doc []
    | "metrics" -> doc (str "format" metrics_format)
    | "slowlog" -> doc (int "limit" limit)
    | "map" | "run" | "tune" | "check" | "trace" ->
        let program =
          match source with
          | None -> []
          | Some path when op = "trace" ->
              [ ("trace_text", J.String (read_text path)) ]
          | Some source -> text_or ~file:"source" ~name:"program" source
        in
        let* params =
          match params_file with
          | None -> Ok []
          | Some path -> (
              match J.parse (read_text path) with
              | Ok j -> Ok [ ("params", j) ]
              | Error e -> Error (Printf.sprintf "%s: %s" path e))
        in
        doc
          (program
          @ Option.fold ~none:[] ~some:(text_or ~file:"topology" ~name:"machine")
              machine
          @ int "scale" scale @ str "policy" policy @ str "scheme" scheme
          @ int "block" block @ params @ num "alpha" alpha @ num "beta" beta
          @ num "balance" balance @ bool "stream" stream
          @ int "sample_sets" sample_sets @ bool "check" check
          @ bool "nocache" nocache @ str "strategy" strategy
          @ int "budget" budget @ int "timeout_ms" timeout_ms
          @ (if trace then
               ("trace", J.Bool true) :: int "trace_window" trace_window
             else [])
          @ int "cores" cores @ str "interleave" interleave @ bool "instr" instr
          @ bool "lossy" lossy @ int "fold_bits" fold_bits
          @ bool "rebase" rebase @ int "split" split)
    | op -> Error (Printf.sprintf "unknown op '%s'" op)
  with
  | doc -> doc
  | exception Sys_error msg -> Error msg

let machine_arg =
  let doc =
    "Target machine: harpertown, nehalem, dunnington, arch-i, arch-ii — or \
     a topology description file (see Topo_parse)."
  in
  Arg.(value & opt string "dunnington" & info [ "m"; "machine" ] ~doc)

let scale_arg =
  let doc =
    "Cache-capacity scale divisor, for presets and topology files alike (1 = \
     the stated sizes, the paper's Table 1 for presets)."
  in
  Arg.(value & opt int 16 & info [ "scale" ] ~doc)

let scheme_arg =
  let doc = "Mapping scheme: base, base+, local, topology-aware, combined." in
  Arg.(value & opt string "combined" & info [ "s"; "scheme" ] ~doc)

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Compile generator-backed access streams instead of materialised \
           arrays.  The simulated event order is bit-identical; only the \
           peak memory of large runs changes.")

let sample_sets_arg =
  Arg.(
    value & opt int 1
    & info [ "sample-sets" ] ~docv:"N"
        ~doc:
          "Simulate only one in $(docv) cache sets and extrapolate the \
           aggregate statistics (a power of two dividing every cache's set \
           count; 1 = exact).  Approximate but deterministic.")

let memo_arg =
  Arg.(
    value & flag
    & info [ "memo" ]
        ~doc:
          "Memoize per-phase simulation: phases re-entered with the same \
           access stream, cache state and hierarchy replay cached stat \
           deltas.  Exact — results are byte-identical, only faster.")

let block_arg =
  let doc = "Data block size in bytes (the paper's default is 2048)." in
  Arg.(value & opt int 2048 & info [ "b"; "block" ] ~doc)

let alpha_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "alpha" ] ~docv:"A"
        ~doc:
          "Horizontal-reuse weight α of the scheduling cost function \
           (non-negative; default from the mapper or the --params file).")

let beta_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "beta" ] ~docv:"B"
        ~doc:
          "Vertical-reuse weight β of the scheduling cost function \
           (non-negative; default from the mapper or the --params file).")

let balance_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "balance" ] ~docv:"T"
        ~doc:
          "Distribution balance threshold (positive; default from the \
           mapper or the --params file).")

let params_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "params" ] ~docv:"FILE"
        ~doc:
          "Load mapping parameters (scheme, α, β, balance threshold, tile \
           edge) from a tuned-params JSON file, as written by $(b,tune \
           --save-params).  Explicit flags override the file.")

let source_arg =
  let doc = "DSL source file, or the name of a built-in workload." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Verbosity of ctamap's own structured logger: error, warn, info, \
           debug, or off (default: \\$CTAM_LOG or warn).  Set \
           \\$CTAM_LOG_FORMAT=json for JSON-lines output on stderr.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a self-telemetry snapshot to $(docv) after the command \
           finishes: every registry metric (phase timings, engine \
           aggregates, parallel-pool utilization, tune-cache traffic) plus \
           process GC totals.  JSON by default; a $(b,.prom) suffix selects \
           the Prometheus text exposition format instead.")

let log_format_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-format" ] ~docv:"FMT"
        ~doc:
          "Rendering of ctamap's own structured logger: $(b,human) or \
           $(b,json) (JSON lines on stderr; default: \\$CTAM_LOG_FORMAT or \
           human).")

let set_log_level = function
  | None -> Ok ()
  | Some s -> Ctam_telemetry.Log.set_level_of_string s

let set_log_format = function
  | None -> Ok ()
  | Some s -> Ctam_telemetry.Log.set_format_of_string s

let write_metrics = function
  | None -> Ok ()
  | Some path -> (
      try
        if Filename.check_suffix path ".prom" then
          Ctam_telemetry.Prometheus.write path
        else
          Ctam_telemetry.Profile.write_snapshot
            ~version:Ctam_exp.Build_info.version
            ~telemetry_version:Ctam_exp.Build_info.telemetry_version path;
        Ok ()
      with Sys_error msg -> Error ("cannot write metrics: " ^ msg))

(* [write path f] writes an output file with [f path]. *)
let write path f =
  match f path with
  | () -> Ok ()
  | exception Sys_error msg -> Error ("cannot write: " ^ msg)

let write_text path text =
  write path (fun p ->
      Out_channel.with_open_text p (fun oc -> output_string oc text))

(* Write a JSON output file, if one was asked for, and say so. *)
let write_json path j =
  match path with
  | None -> Ok ()
  | Some path ->
      Result.map
        (fun () -> Fmt.pr "wrote %s@." path)
        (write path (fun p -> Ctam_exp.Run_report.write_file p (Lazy.force j)))

let policy_arg =
  let doc =
    Printf.sprintf
      "Replacement-policy override: one policy name for every cache level, \
       or per-level bindings like $(b,L1=plru,L2=qlru) (later bindings \
       win).  Policies: %s."
      (String.concat "; "
         (List.map
            (fun (n, d) -> Printf.sprintf "$(b,%s) — %s" n d)
            Policy.all))
  in
  Arg.(value & opt (some string) None & info [ "policy" ] ~docv:"SPEC" ~doc)

let ( let* ) r f = match r with Ok v -> f v | Error e -> `Error (false, e)
let ( >>= ) = Result.bind

(* [map_ok f xs] maps [f] over [xs] in order, stopping at the first
   error. *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: xs -> f x >>= fun y -> Result.map (List.cons y) (map_ok f xs)

(* The one path from flags to the pipeline: a command that compiles or
   simulates parses its request document and runs it through
   [Request.perform], as the daemon does, then only renders the
   outcome. *)
let perform ?cache_dir ?jobs ?memo doc =
  doc >>= Request.parse >>= fun r ->
  Ok (r, fst (Request.perform ?cache_dir ?jobs ?memo r))

(* The compiled plan of a [map] document. *)
let plan_of doc =
  perform doc >>= function
  | _, Request.Plan compiled -> Ok compiled
  | _ -> assert false

(* The observed run of a [run] document, with its parsed request. *)
let profile_of doc =
  perform doc >>= function
  | r, Request.Profile p -> Ok (r, p)
  | _ -> assert false

(* --- commands --------------------------------------------------------- *)

let machines_cmd =
  let run scale =
    let* machines =
      map_ok
        (fun name ->
          build_request ~op:"map" ~machine:name ~scale ()
          >>= Request.parse_machine)
        [ "harpertown"; "nehalem"; "dunnington"; "arch-i"; "arch-ii" ]
    in
    List.iter (fun m -> Fmt.pr "%a@.@." Topology.pp m) machines;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "machines" ~doc:"List the built-in cache topologies.")
    Term.(ret (const run $ scale_arg))

let groups_cmd =
  let run source machine scale block limit =
    let* ({ Request.program = prog; machine; _ } as r) =
      build_request ~op:"map" ~source ~machine ~scale ~block ()
      >>= Request.parse
    in
    let params = Request.params r in
    match Program.parallel_nests prog with
    | [] -> `Error (false, "program has no parallel nest")
    | nest :: _ ->
        let _grouping, groups, dag =
          Mapping.grouping_for ~params ~machine prog nest
        in
        Fmt.pr "nest %s: %d iteration groups, %d dependence edges@."
          nest.Nest.name (Array.length groups)
          (Ctam_deps.Dep_graph.num_edges dag);
        Array.iteri
          (fun i g -> if i < limit then Fmt.pr "  %a@." Iter_group.pp g)
          groups;
        if Array.length groups > limit then
          Fmt.pr "  ... (%d more)@." (Array.length groups - limit);
        `Ok ()
  in
  let limit =
    Arg.(value & opt int 16 & info [ "n"; "limit" ] ~doc:"Groups to print.")
  in
  Cmd.v
    (Cmd.info "groups"
       ~doc:"Show the iteration groups (tags) of a program's parallel nest.")
    Term.(
      ret (const run $ source_arg $ machine_arg $ scale_arg $ block_arg $ limit))

let map_cmd =
  let run source machine scale scheme block =
    let* compiled =
      plan_of
        (build_request ~op:"map" ~source ~machine ~scale ~scheme ~block ())
    in
    Fmt.pr "program %s mapped with %s for %s@."
      compiled.Mapping.program.Program.name
      (Mapping.scheme_name compiled.Mapping.scheme)
      compiled.Mapping.machine.Topology.name;
    List.iter
      (fun info ->
        Fmt.pr "  nest %-12s groups=%-5d rounds=%-4d dep-edges=%-5d block=%dB@."
          info.Mapping.nest_name info.Mapping.num_groups info.Mapping.num_rounds
          info.Mapping.dep_edges info.Mapping.used_block_size)
      compiled.Mapping.infos;
    (* Per-core access counts of the first phase. *)
    (match compiled.Mapping.phases with
    | phase :: _ ->
        Fmt.pr "first phase accesses per core:@.";
        Array.iteri
          (fun c s -> Fmt.pr "  core %2d: %d@." c (Engine.stream_length s))
          phase
    | [] -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Compile a program and print the mapping summary.")
    Term.(
      ret (const run $ source_arg $ machine_arg $ scale_arg $ scheme_arg
           $ block_arg))

(* [run] and its second name [simulate]. *)
let run_term =
  let run source machine scale scheme block json profile check window alpha
      beta balance params_file stream sample_sets log_level metrics_out policy
      =
    let* () = set_log_level log_level in
    let* _, p =
      profile_of
        (build_request ~op:"run" ~source ~machine ~scale ?policy ?scheme ~block
           ?params_file ?alpha ?beta ?balance ~stream ~sample_sets ~check
           ~trace:(window <> None) ?trace_window:window ())
    in
    let { Mapping.program = prog; machine; scheme; _ } =
      p.Ctam_exp.Run_report.compiled
    in
    let* () =
      match p.Ctam_exp.Run_report.verify with
      | None -> Ok ()
      | Some r ->
          Fmt.pr "%a@." Ctam_verify.Verify.pp_report r;
          if Ctam_verify.Verify.ok r then Ok ()
          else Error "mapping verification failed"
    in
    Fmt.pr "%s on %s (%s):@.%a@." prog.Program.name machine.Topology.name
      (Mapping.scheme_name scheme)
      Stats.pp p.Ctam_exp.Run_report.stats;
    let sink = p.Ctam_exp.Run_report.sink in
    if profile then begin
      Fmt.pr "@.compile/simulate phases:@.%s"
        (Ctam_exp.Report.table
           ~header:[ "phase"; "seconds" ]
           (List.map
              (fun (k, v) -> [ k; Printf.sprintf "%.6f" v ])
              p.Ctam_exp.Run_report.timings));
      let levels = Sink.levels sink in
      let header =
        [ "core"; "accesses"; "mem" ]
        @ List.concat_map
            (fun l ->
              [ Printf.sprintf "L%d-miss" l; Printf.sprintf "L%d-rate" l ])
            levels
      in
      let rows =
        List.init machine.Topology.num_cores (fun core ->
            string_of_int core
            :: string_of_int (Sink.accesses sink ~core)
            :: string_of_int (Sink.mem sink ~core)
            :: List.concat_map
                 (fun level ->
                   let h = Sink.hits sink ~core ~level in
                   let m = Sink.misses sink ~core ~level in
                   [
                     string_of_int m;
                     (if h + m = 0 then "-"
                      else
                        Printf.sprintf "%.3f"
                          (float_of_int m /. float_of_int (h + m)));
                   ])
                 levels)
      in
      Fmt.pr "@.per-core counters:@.%s"
        (Ctam_exp.Report.table ~geomean:"geomean" ~header rows);
      let top_groups =
        Sink.group_stats sink
        |> List.sort (fun (_, a) (_, b) -> compare b.Sink.g_mem a.Sink.g_mem)
        |> fun l -> List.filteri (fun i _ -> i < 10) l
      in
      if top_groups <> [] then
        Fmt.pr "@.hottest groups (by memory accesses):@.%s"
          (Ctam_exp.Report.table
             ~header:[ "nest:group"; "accesses"; "mem" ]
             (List.map
                (fun (seg, g) ->
                  let nest, group =
                    match List.assoc_opt seg p.Ctam_exp.Run_report.legend with
                    | Some ng -> ng
                    | None -> ("?", seg)
                  in
                  [
                    Printf.sprintf "%s:%d" nest group;
                    string_of_int g.Sink.g_accesses;
                    string_of_int g.Sink.g_mem;
                  ])
                top_groups));
      let v = Sink.vertical sink in
      let hz = Sink.horizontal sink in
      let x = Sink.cross sink in
      Fmt.pr
        "@.reuse: %d accesses, %d cold; vertical %d (mean dist %.1f), \
         horizontal %d (mean dist %.1f), cross-socket %d@."
        (Sink.total sink) (Sink.cold sink)
        v.Reuse.total (Reuse.mean_distance v) hz.Reuse.total
        (Reuse.mean_distance hz) x.Reuse.total
    end;
    (match Sink.window sink with
    | Some w when profile ->
        Fmt.pr "@.timeline: %d windows of %d cycles, %d spans@."
          (Sink.num_windows sink) w
          (List.length (Sink.spans sink))
    | _ -> ());
    let* () = write_metrics metrics_out in
    let* () = write_json json (lazy p.Ctam_exp.Run_report.report) in
    `Ok ()
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the structured JSON run report to $(docv).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print compile-phase timings, per-core/per-level counters, \
             per-group miss attribution and the reuse split.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run the mapping legality checker before simulating; the \
             verdict is printed, added to the JSON report, and a violation \
             exits non-zero (see the $(b,check) command).")
  in
  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Keep a timeline of $(docv)-cycle windows and embed \
             the windowed time-series metrics (per-core occupancy and \
             per-level hit/miss series, reuse split) in the JSON report.")
  in
  let scheme =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "scheme" ]
          ~doc:
            "Mapping scheme: base, base+, local, topology-aware, combined \
             (default: the --params file's scheme, else combined).")
  in
  Term.(
    ret
      (const run $ source_arg $ machine_arg $ scale_arg $ scheme $ block_arg
     $ json $ profile $ check $ window $ alpha_arg $ beta_arg $ balance_arg
     $ params_file_arg $ stream_arg $ sample_sets_arg $ log_level_arg
     $ metrics_out_arg $ policy_arg))

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile and execute a program with the observability probes \
          attached (counters, per-group attribution, reuse split); \
          optionally emit a JSON run report.")
    run_term

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Compile and execute a program on the simulated hierarchy: \
          another name for $(b,run).")
    run_term

let positive_int =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ ->
            Error
              (Printf.sprintf "invalid value '%s', expected a positive integer"
                 s)),
      Format.pp_print_int )

let jobs_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the per-scheme simulations across $(docv) domains (default: \
           \\$CTAM_JOBS or the machine's core count).  The output is \
           byte-identical to a serial run.")

let compare_cmd =
  let run source machine scale block jobs alpha beta balance params_file
      stream sample_sets memo log_level metrics_out policy =
    let* () = set_log_level log_level in
    let* { Request.program = prog; machine; knobs; base_params; stream;
           sample_sets; _ } =
      build_request ~op:"run" ~source ~machine ~scale ?policy ~block
        ?params_file ?alpha ?beta ?balance ~stream ~sample_sets ()
      >>= Request.parse
    in
    (* The tuned point's parameters apply to every scheme in the table
       (its scheme coordinate is ignored; each scheme reads the knobs
       it uses). *)
    let params = Space.params_of ~base:base_params knobs in
    (* One memo table shared by all schemes: phases that coincide
       across schemes (e.g. identical Base chunks) replay.  The table
       is mutex-protected, so the parallel map below can share it. *)
    let sim_memo = if memo then Some (Memo.create ()) else None in
    (* Simulate every scheme in parallel, then assemble the table
       serially so the Base-normalization and row order match the old
       one-scheme-at-a-time loop exactly. *)
    let results =
      Ctam_util.Parallel.map ?domains:jobs
        (fun scheme ->
          ( scheme,
            Mapping.run ~params ~stream
              ?sample_sets:(if sample_sets > 1 then Some sample_sets else None)
              ?memo:sim_memo scheme ~machine prog ))
        Mapping.all_schemes
    in
    let base = ref 1 in
    let rows =
      List.map
        (fun (scheme, (stats : Stats.t)) ->
          if scheme = Mapping.Base then base := stats.Stats.cycles;
          [
            Mapping.scheme_name scheme;
            string_of_int stats.Stats.cycles;
            string_of_int stats.Stats.mem_accesses;
            Printf.sprintf "%.3f"
              (float_of_int stats.Stats.cycles /. float_of_int !base);
          ])
        results
    in
    print_string
      (Ctam_exp.Report.table ~geomean:"geomean"
         ~header:[ "scheme"; "cycles"; "mem"; "vs Base" ]
         rows);
    let* () = write_metrics metrics_out in
    `Ok ()
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all mapping schemes on one program.")
    Term.(
      ret
        (const run $ source_arg $ machine_arg $ scale_arg $ block_arg
       $ jobs_arg $ alpha_arg $ beta_arg $ balance_arg $ params_file_arg
       $ stream_arg $ sample_sets_arg $ memo_arg $ log_level_arg
       $ metrics_out_arg $ policy_arg))

let tune_cmd =
  let run source machine scale block strategy budget cache_dir json
      save_params verify jobs stream sample_sets memo log_level metrics_out
      policy =
    let* () = set_log_level log_level in
    let* result =
      match
        perform ?cache_dir ?jobs ~memo
          (build_request ~op:"tune" ~source ~machine ~scale ?policy ~block
             ~strategy ?budget ~check:verify ~stream ~sample_sets ())
      with
      | Ok (_, Request.Searched result) -> Ok result
      | Ok _ -> assert false
      | Error e -> Error e
    in
    print_string (Ctam_tune.Search.render result);
    let* () =
      write_json save_params (lazy (Ctam_tune.Search.best_params_json result))
    in
    let* () = write_json json (lazy (Ctam_tune.Search.to_json result)) in
    let* () = write_metrics metrics_out in
    match result.Ctam_tune.Search.verify_ok with
    | Some false -> `Error (false, "winning mapping failed verification")
    | _ -> `Ok ()
  in
  let strategy =
    Arg.(
      value & opt string "grid"
      & info [ "strategy" ] ~docv:"S"
          ~doc:
            "Search strategy: $(b,grid) (exhaustive), $(b,descent) \
             (coordinate descent from the default), or $(b,halving) \
             (successive halving under growing cycle caps).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Evaluate at most $(docv) configurations beyond the default \
             (which is always evaluated).  A persistent-cache hit costs no \
             simulation but still counts, so the searched set and the \
             winner do not depend on the cache's temperature.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persistent result-cache directory.  Keys cover the program \
             source, the topology, the parameters and the tool version, so \
             re-tuning after unrelated edits is pure cache hits and never \
             changes the result.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the tune report to $(docv).  The report is \
             deterministic (no timestamps): identical runs produce \
             byte-identical files at any -j, and $(b,report diff) can \
             compare them across commits.")
  in
  let save_params =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-params" ] ~docv:"FILE"
          ~doc:
            "Write the winning parameters to $(docv), in the format \
             $(b,run --params) and $(b,compare --params) accept.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Run the mapping legality checker on the winning \
             configuration; a violation exits non-zero.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the mapping-parameter space (scheme, α, β, balance \
          threshold, tile edge) for the lowest-cycle configuration of a \
          program on a machine, using the cache simulator as the cost \
          oracle.")
    Term.(
      ret
        (const run $ source_arg $ machine_arg $ scale_arg $ block_arg
       $ strategy $ budget $ cache_dir $ json $ save_params $ verify
       $ jobs_arg $ stream_arg $ sample_sets_arg $ memo_arg $ log_level_arg
       $ metrics_out_arg $ policy_arg))

let codegen_cmd =
  let run source machine scale core block =
    let* compiled =
      plan_of (build_request ~op:"map" ~source ~machine ~scale ~block ())
    in
    let machine = compiled.Mapping.machine in
    match
      List.find_opt
        (fun plan -> plan.Mapping.plan_nest.Nest.parallel)
        compiled.Mapping.plans
    with
    | None -> `Error (false, "program has no parallel nest")
    | Some _ when core < 0 || core >= machine.Topology.num_cores ->
        `Error (false, "core out of range")
    | Some plan ->
        let nest = plan.Mapping.plan_nest in
        let groups =
          List.concat_map (fun round -> round.(core)) plan.Mapping.plan_rounds
        in
        Fmt.pr "// code for core %d of %s (%d groups)@." core
          machine.Topology.name (List.length groups);
        let body =
          Fmt.str "%a"
            (Fmt.list ~sep:(Fmt.any " ")
               (Ctam_ir.Stmt.pp ~names:nest.Nest.index_names))
            nest.Nest.body
        in
        List.iter
          (fun g ->
            let cg = Ctam_poly.Codegen.decompose g.Iter_group.iters in
            Fmt.pr "// group %d, tag weight %d@.%s" g.Iter_group.id
              (Bitset.count g.Iter_group.tag)
              (Ctam_poly.Codegen.emit ~names:nest.Nest.index_names ~body cg))
          groups;
        `Ok ()
  in
  let core =
    Arg.(value & opt int 0 & info [ "c"; "core" ] ~doc:"Core to emit code for.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Emit the C-like loop nests that enumerate one core's iteration \
          groups of the first parallel nest under the Combined mapping (the \
          Omega-style codegen step).")
    Term.(
      ret (const run $ source_arg $ machine_arg $ scale_arg $ core $ block_arg))

let dump_cmd =
  let run source output =
    let* prog = build_request ~op:"map" ~source () >>= Request.parse_program in
    let text = Ctam_frontend.Unparse.program prog in
    match output with
    | Some path ->
        let* () = write_text path text in
        Fmt.pr "wrote %s@." path;
        `Ok ()
    | None ->
        print_string text;
        `Ok ()
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the DSL text to this file.")
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Render a program (e.g. a built-in workload) as DSL source.")
    Term.(ret (const run $ source_arg $ output))

let reuse_cmd =
  let run source machine scale scheme block =
    let* compiled =
      plan_of
        (build_request ~op:"map" ~source ~machine ~scale ~scheme ~block ())
    in
    let machine = compiled.Mapping.machine in
    let line =
      match Topology.caches machine with p :: _ -> p.Topology.line | [] -> 64
    in
    let l1_lines = Mapping.l1_capacity machine / line in
    (* Per-core reuse profile of the first phase. *)
    (match compiled.Mapping.phases with
    | [] -> ()
    | phase :: _ ->
        let hists =
          Array.map
            (fun s -> Reuse.of_stream (Engine.force_stream s) ~line)
            phase
        in
        Array.iteri
          (fun c (h : Reuse.histogram) ->
            if h.Reuse.total > 0 then
              Fmt.pr
                "core %2d: %7d accesses, %6d cold, mean distance %8.1f, \
                 L1-size hit ratio %.2f@."
                c h.Reuse.total h.Reuse.cold (Reuse.mean_distance h)
                (Reuse.hit_ratio_at h ~lines:l1_lines))
          hists;
        let m = Reuse.merge (Array.to_list hists) in
        Fmt.pr "machine:  %7d accesses, %6d cold, mean distance %8.1f@."
          m.Reuse.total m.Reuse.cold (Reuse.mean_distance m));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "reuse"
       ~doc:
         "Reuse-distance (LRU stack distance) profile of a mapping's \
          per-core access streams.")
    Term.(
      ret (const run $ source_arg $ machine_arg $ scale_arg $ scheme_arg
           $ block_arg))

let emit_c_cmd =
  let run source machine scale scheme block output =
    let* compiled =
      plan_of
        (build_request ~op:"map" ~source ~machine ~scale ~scheme ~block ())
    in
    let code = Emit_c.program compiled in
    match output with
    | Some path ->
        let* () = write_text path code in
        Fmt.pr "wrote %s (%d bytes); compile with: gcc -fopenmp -O2 %s@." path
          (String.length code) path;
        `Ok ()
    | None ->
        print_string code;
        `Ok ()
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the C program to this file.")
  in
  Cmd.v
    (Cmd.info "emit-c"
       ~doc:
         "Emit the mapped program as a complete OpenMP C file (per-core           loop nests, barriers between scheduling rounds).")
    Term.(
      ret (const run $ source_arg $ machine_arg $ scale_arg $ scheme_arg
           $ block_arg $ output))

let check_cmd =
  let run source machine scale scheme block all_schemes inject json log_level
      metrics_out =
    let* () = set_log_level log_level in
    let* inject =
      match inject with
      | None -> Ok None
      | Some s -> Result.map Option.some (Ctam_verify.Inject.of_string s)
    in
    let schemes =
      if all_schemes then List.map Mapping.scheme_id Mapping.all_schemes
      else [ scheme ]
    in
    (* Each scheme's plan comes from [Request.perform]; a corruption is
       injected into it before the checker sees it. *)
    let check scheme =
      plan_of
        (build_request ~op:"map" ~source ~machine ~scale ~scheme ~block ())
      >>= fun compiled ->
      let { Mapping.program = prog; machine; scheme; _ } = compiled in
      let compiled =
        match inject with
        | None -> compiled
        | Some corruption ->
            let compiled, what = Ctam_verify.Inject.apply corruption compiled in
            Fmt.pr "injected (%s): %s@."
              (Ctam_verify.Inject.to_string corruption)
              what;
            compiled
      in
      let r = Ctam_verify.Verify.check compiled in
      Fmt.pr "%s / %s / %s:@.%a@." prog.Program.name machine.Topology.name
        (Mapping.scheme_name scheme) Ctam_verify.Verify.pp_report r;
      Ok ((prog.Program.name, machine.Topology.name), (scheme, r))
    in
    let* checked = map_ok check schemes in
    let reports = List.map snd checked in
    let* () =
      write_json json
        (lazy
          (let program, machine = fst (List.hd checked) in
           J.Obj
             [
               ("version", J.String Ctam_exp.Build_info.version);
               ("program", J.String program);
               ("machine", J.String machine);
               ( "inject",
                 match inject with
                 | None -> J.Null
                 | Some c -> J.String (Ctam_verify.Inject.to_string c) );
               ( "checks",
                 J.List
                   (List.map
                      (fun (scheme, r) ->
                        J.Obj
                          [
                            ("scheme", J.String (Mapping.scheme_name scheme));
                            ("report", Ctam_verify.Verify.to_json r);
                          ])
                      reports) );
             ]))
    in
    let* () = write_metrics metrics_out in
    let bad =
      List.filter (fun (_, r) -> not (Ctam_verify.Verify.ok r)) reports
    in
    if bad = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "mapping verification failed (%d scheme(s))"
            (List.length bad) )
  in
  let all_schemes =
    Arg.(
      value & flag
      & info [ "all-schemes" ] ~doc:"Check every mapping scheme in turn.")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"MODE"
          ~doc:
            "Deliberately corrupt the compiled mapping before checking \
             (bad-coverage or bad-order); the check must then fail, proving \
             the checker detects broken mappings.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the verification report as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify a compiled mapping end to end: iteration coverage and \
          disjointness against the nest domains, codegen faithfulness, \
          dependence legality across phases, trace-level race freedom, and \
          topology well-formedness.  Exits non-zero if any invariant is \
          violated.")
    Term.(
      ret
        (const run $ source_arg $ machine_arg $ scale_arg $ scheme_arg
       $ block_arg $ all_schemes $ inject $ json $ log_level_arg
       $ metrics_out_arg))

let trace_cmd =
  let run source machine scale scheme block output window heatmap =
    let* r, p =
      profile_of
        (build_request ~op:"run" ~source ~machine ~scale ~scheme ~block
           ~trace:true ~trace_window:window ())
    in
    let sink = p.Ctam_exp.Run_report.sink in
    (* A traced run always has its Chrome trace. *)
    let* () =
      write output (fun path ->
          Ctam_exp.Run_report.write_file path
            (Option.get (Request.chrome_trace r p)))
    in
    Fmt.pr "wrote %s: %d cycles in %d windows of %d, %d spans, %d barriers@."
      output p.Ctam_exp.Run_report.stats.Stats.cycles (Sink.num_windows sink)
      window
      (List.length (Sink.spans sink))
      (List.length (Sink.barrier_marks sink));
    if heatmap then
      List.iter
        (fun level ->
          match Sink.render_heatmap sink ~level with
          | Some s -> Fmt.pr "@.%s" s
          | None -> ())
        (Sink.levels sink);
    `Ok ()
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace-event JSON to $(docv).")
  in
  let window =
    Arg.(
      value
      & opt int Request.default_window
      & info [ "window" ] ~docv:"N"
          ~doc:"Time-series window width in simulated cycles.")
  in
  let heatmap =
    Arg.(
      value & flag
      & info [ "heatmap" ]
          ~doc:
            "Also print an ASCII set-index x window conflict-miss heatmap \
             per cache level.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate a program with a windowed probe sink attached and export a \
          Chrome trace-event / Perfetto JSON file: per-core iteration-group \
          spans, barrier and invalidation instants, per-window counter \
          tracks, and the compile phases on their own track.  Load the \
          output in chrome://tracing or ui.perfetto.dev.")
    Term.(
      ret
        (const run $ source_arg $ machine_arg $ scale_arg $ scheme_arg
       $ block_arg $ output $ window $ heatmap))

let report_cmd =
  let diff_run a b threshold =
    match Ctam_exp.Report_diff.diff_files ~threshold a b with
    | Error e -> `Error (false, e)
    | Ok (text, regressions) ->
        print_string text;
        if regressions = 0 then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d metric(s) regressed by more than %.1f%%"
                regressions threshold )
  in
  let a_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"A" ~doc:"Baseline report (JSON or JSONL).")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B" ~doc:"New report to compare against $(i,A).")
  in
  let threshold =
    Arg.(
      value
      & opt float Ctam_exp.Report_diff.default_threshold
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Flag a metric as a regression when it grows by more than \
             $(docv) percent.")
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Align two run reports / bench sweeps by (workload, machine, \
            scheme) and print per-metric deltas; exits non-zero when any \
            higher-is-worse metric (cycles, memory accesses, miss rates, \
            vs-base ratios) regressed past the threshold.")
      Term.(ret (const diff_run $ a_arg $ b_arg $ threshold))
  in
  let default = Term.(ret (const (`Help (`Pager, Some "report")))) in
  Cmd.group ~default
    (Cmd.info "report" ~doc:"Operations on JSON run reports.")
    [ diff_cmd ]

let experiment_cmd =
  let run name quick =
    match Ctam_exp.Experiments.by_name name with
    | runner ->
        print_string (Ctam_exp.Report.render (runner ~quick ()));
        `Ok ()
    | exception Not_found ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment '%s' (known: %s)" name
              (String.concat ", " Ctam_exp.Experiments.names) )
  in
  let exp_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment name, e.g. fig13.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Quarter-size workloads.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one of the paper's experiments.")
    Term.(ret (const run $ exp_name $ quick))

let serve_cmd =
  let run socket workers cache_dir cache_entries cache_mb max_frame_mb
      timeout_ms journal journal_max_mb slow_ms slowlog_entries log_level
      log_format metrics_out =
    (* The daemon defaults to info so its startup-config and lifecycle
       lines are visible; an explicit --log-level or $CTAM_LOG still
       wins. *)
    (if log_level = None && Sys.getenv_opt Ctam_telemetry.Log.env_var = None
     then Ctam_telemetry.Log.set_level (Some Ctam_telemetry.Log.Info));
    let* () = set_log_level log_level in
    let* () = set_log_format log_format in
    let* () =
      if workers < 1 then Error "--workers must be positive" else Ok ()
    in
    let* () =
      if cache_entries < 1 || cache_mb < 1 || max_frame_mb < 1 then
        Error "--cache-entries, --cache-mb and --max-frame-mb must be positive"
      else Ok ()
    in
    let* () =
      if journal_max_mb < 1 then Error "--journal-max-mb must be positive"
      else Ok ()
    in
    let* () =
      if slow_ms < 0. then Error "--slow-ms must be non-negative" else Ok ()
    in
    let* () =
      if slowlog_entries < 1 then Error "--slowlog-entries must be positive"
      else Ok ()
    in
    let config =
      {
        Ctam_serve.Server.socket;
        workers;
        max_frame = max_frame_mb * 1024 * 1024;
        default_timeout_ms = timeout_ms;
        cache_dir;
        cache_entries;
        cache_bytes = cache_mb * 1024 * 1024;
        journal_path = journal;
        journal_max_bytes = journal_max_mb * 1024 * 1024;
        slow_ms;
        slowlog_entries;
      }
    in
    match Ctam_serve.Server.create config with
    | exception Unix.Unix_error (err, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot listen on %s: %s" socket
              (Unix.error_message err) )
    | exception Sys_error msg ->
        `Error (false, Printf.sprintf "cannot open journal: %s" msg)
    | t ->
        let stop _ = Ctam_serve.Server.stop t in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        (* Lifecycle lines come from the daemon's structured logger
           (Server.serve logs the effective config at info). *)
        Ctam_serve.Server.serve t;
        let* () = write_metrics metrics_out in
        `Ok ()
  in
  let socket =
    Arg.(
      value
      & opt string "ctamap.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Concurrent request workers (one domain each).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the compiled-plan cache under $(docv) (shared with, but \
             distinct from, the tune evaluation cache).  Without it the \
             cache is in-memory only.")
  in
  let cache_entries =
    Arg.(
      value
      & opt int Ctam_serve.Plan_cache.default_max_entries
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"In-memory plan-cache entry bound.")
  in
  let cache_mb =
    Arg.(
      value
      & opt int (Ctam_serve.Plan_cache.default_max_bytes / (1024 * 1024))
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"In-memory plan-cache byte bound, in MiB.")
  in
  let max_frame_mb =
    Arg.(
      value
      & opt int (Ctam_serve.Protocol.default_max_frame / (1024 * 1024))
      & info [ "max-frame-mb" ] ~docv:"MB"
          ~doc:
            "Refuse request frames larger than $(docv) MiB (answered with a \
             structured error, connection kept when possible).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline; requests may override with their \
             own $(b,timeout_ms) member.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append an audit-journal record (JSON line: request id, op, \
             cache outcome, per-span timings, byte counts, status, plus the \
             request and response documents) to $(docv) for every request \
             served.  Size-rotated; replayable with \
             $(b,tools/journal_replay).")
  in
  let journal_max_mb =
    Arg.(
      value
      & opt int (Ctam_serve.Journal.default_max_bytes / (1024 * 1024))
      & info [ "journal-max-mb" ] ~docv:"MB"
          ~doc:
            "Rotate the journal (rename to $(i,FILE).1 and restart) when it \
             would exceed $(docv) MiB.")
  in
  let slow_ms =
    Arg.(
      value
      & opt float Ctam_serve.Slowlog.default_threshold_ms
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Record requests at least $(docv) ms in the in-memory slowlog \
             ring, queryable live with the $(b,slowlog) op.")
  in
  let slowlog_entries =
    Arg.(
      value
      & opt int Ctam_serve.Slowlog.default_capacity
      & info [ "slowlog-entries" ] ~docv:"N"
          ~doc:"Slowlog ring capacity (oldest entries overwritten).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the mapping daemon: a Unix-domain-socket server answering \
          map/run/tune/check requests (length-prefixed JSON frames) from a \
          worker pool, with an LRU compiled-plan cache in front of the \
          pipeline.  Malformed requests get structured error replies; only \
          a shutdown request or SIGINT/SIGTERM stops it.  Observability: \
          per-request ids on every reply and log line, an optional \
          append-only audit journal ($(b,--journal)), a slow-request ring \
          ($(b,--slow-ms)) and live $(b,metrics)/$(b,slowlog) wire ops.")
    Term.(
      ret
        (const run $ socket $ workers $ cache_dir $ cache_entries $ cache_mb
       $ max_frame_mb $ timeout_ms $ journal $ journal_max_mb $ slow_ms
       $ slowlog_entries $ log_level_arg $ log_format_arg $ metrics_out_arg))

let client_cmd =
  let run socket op source machine scale scheme block stream sample_sets check
      strategy budget nocache timeout_ms trace trace_window metrics_format
      limit load concurrency out_json log_level log_format policy =
    let* () = set_log_level log_level in
    let* () = set_log_format log_format in
    let* req =
      build_request ~op ?source ~machine ~scale ?policy ~scheme ~block ~stream
        ~sample_sets ~check ?strategy ?budget ~nocache ?timeout_ms ~trace
        ?trace_window ?metrics_format ?limit ()
    in
    match load with
    | Some total ->
        let* () =
          if total < 1 || concurrency < 1 then
            Error "--load and --concurrency must be positive"
          else Ok ()
        in
        let stats =
          Ctam_serve.Client.load ~socket ~concurrency ~total [ req ]
        in
        if out_json then
          print_endline
            (J.to_string ~minify:true (Ctam_serve.Client.load_stats_json stats))
        else print_endline (Ctam_serve.Client.render_load_stats stats);
        if stats.Ctam_serve.Client.errors > 0 then
          `Error
            ( false,
              Printf.sprintf "%d of %d requests failed"
                stats.Ctam_serve.Client.errors stats.Ctam_serve.Client.requests
            )
        else `Ok ()
    | None -> (
        let* reply = Ctam_serve.Client.one_shot ~socket req in
        match Ctam_serve.Protocol.response_error reply with
        | Some (code, message) ->
            `Error (false, Printf.sprintf "%s: %s" code message)
        | None ->
            let result =
              Option.value ~default:J.Null
                (Ctam_serve.Protocol.response_result reply)
            in
            (* String results (e.g. metrics --format prometheus) are
               printed raw, so the output is directly scrapeable. *)
            (match result with
            | J.String s ->
                print_string s;
                if s = "" || s.[String.length s - 1] <> '\n' then
                  print_newline ()
            | r -> print_endline (J.to_string r));
            `Ok ())
  in
  let socket =
    Arg.(
      value
      & opt string "ctamap.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket to connect to.")
  in
  let op =
    Arg.(
      value & opt string "run"
      & info [ "op" ] ~docv:"OP"
          ~doc:
            "Request operation: map, run, tune, check, trace (replay a \
             Lackey trace file on the daemon), stats, metrics, slowlog, \
             ping, version or shutdown.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "For run: embed the Chrome trace-event JSON of the simulated \
             timeline (and the compile phases) in the reply's result as a \
             $(b,trace) member.")
  in
  let trace_window =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-window" ] ~docv:"N"
          ~doc:"Timeline window width in simulated cycles (with --trace).")
  in
  let metrics_format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "For the metrics op: $(b,json) (structured snapshot, default) \
             or $(b,prometheus) (text exposition, printed raw).")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:"For the slowlog op: return at most $(docv) entries.")
  in
  let source =
    let doc = "DSL source file, or the name of a built-in workload." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let strategy =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Tune search strategy (grid, descent, halving).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N" ~doc:"Tune evaluation budget.")
  in
  let nocache =
    Arg.(
      value & flag
      & info [ "nocache" ]
          ~doc:"Bypass the daemon's plan cache (no lookup, no store).")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "For run: attach the legality report; for tune: verify the \
             winning mapping.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let load =
    Arg.(
      value
      & opt (some int) None
      & info [ "load" ] ~docv:"N"
          ~doc:
            "Load-generator mode: send $(docv) copies of the request and \
             report throughput and latency percentiles instead of the \
             reply.")
  in
  let concurrency =
    Arg.(
      value & opt int 1
      & info [ "concurrency" ] ~docv:"K"
          ~doc:"Concurrent load-generator connections (with --load).")
  in
  let out_json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print load-generator stats as JSON (with --load).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running mapping daemon and print the result \
          (or, with --load, benchmark it).  The request is built from the \
          same program/machine/scheme flags the one-shot commands take; the \
          reply's result member is the same JSON the one-shot command would \
          print.")
    Term.(
      ret
        (const run $ socket $ op $ source $ machine_arg $ scale_arg
       $ scheme_arg $ block_arg $ stream_arg $ sample_sets_arg $ check_flag
       $ strategy $ budget $ nocache $ timeout_ms $ trace $ trace_window
       $ metrics_format $ limit $ load $ concurrency $ out_json
       $ log_level_arg $ log_format_arg $ policy_arg))

(* [ctamap top]: a polling monitor for a running daemon.  Each tick
   asks for [stats] and a JSON [metrics] snapshot over the wire and
   renders the service at a glance: request rate, per-op latency
   quantiles (from the ctam_serve_request_seconds histograms), plan
   cache hit rate, resident heap, worker utilization and error
   counts. *)
let top_cmd =
  let module J = Ctam_util.Json in
  let module M = Ctam_telemetry.Metrics in
  let mem name j = match j with J.Obj _ -> J.member name j | _ -> None in
  let int_mem name j =
    match mem name j with
    | Some (J.Int i) -> i
    | Some (J.Float f) -> int_of_float f
    | _ -> 0
  in
  let float_mem name j =
    match mem name j with
    | Some (J.Float f) -> f
    | Some (J.Int i) -> float_of_int i
    | _ -> 0.
  in
  let str_mem name j =
    match mem name j with Some (J.String s) -> s | _ -> ""
  in
  (* Rebuild Metrics.value histograms from the snapshot JSON, merged
     over every label set of the family except [by], keyed by [by]'s
     value — e.g. ctam_serve_request_seconds{op,cache} summed over
     cache, per op.  Identical bounds per family make cumulative
     bucket counts directly summable. *)
  let histograms_by ~family ~by metrics_json =
    let families =
      match mem "metrics" metrics_json with Some (J.List l) -> l | _ -> []
    in
    let out = ref [] in
    List.iter
      (fun f ->
        if str_mem "name" f = family then
          let series = match mem "series" f with Some (J.List l) -> l | _ -> [] in
          List.iter
            (fun s ->
              let key =
                match mem "labels" s with
                | Some labels -> str_mem by labels
                | None -> ""
              in
              let buckets =
                match mem "buckets" s with
                | Some (J.List bs) ->
                    List.map
                      (fun b ->
                        let le =
                          match mem "le" b with
                          | Some (J.Float f) -> f
                          | Some (J.Int i) -> float_of_int i
                          | _ -> infinity
                        in
                        (le, int_mem "count" b))
                      bs
                | _ -> []
              in
              let count = int_mem "count" s and sum = float_mem "sum" s in
              let merged =
                match List.assoc_opt key !out with
                | None -> (count, sum, buckets)
                | Some (c, su, bs) ->
                    ( c + count,
                      su +. sum,
                      List.map2
                        (fun (le, a) (_, b) -> (le, a + b))
                        bs buckets )
              in
              out := (key, merged) :: List.remove_assoc key !out)
            series)
      families;
    List.rev_map
      (fun (key, (count, sum, buckets)) ->
        (key, M.Histogram { count; sum; buckets = Array.of_list buckets }))
      !out
  in
  let poll socket =
    let ( let* ) = Result.bind in
    let* stats_reply =
      Ctam_serve.Client.one_shot ~socket (J.Obj [ ("op", J.String "stats") ])
    in
    let* metrics_reply =
      Ctam_serve.Client.one_shot ~socket (J.Obj [ ("op", J.String "metrics") ])
    in
    match
      ( Ctam_serve.Protocol.response_result stats_reply,
        Ctam_serve.Protocol.response_result metrics_reply )
    with
    | Some stats, Some metrics -> Ok (Unix.gettimeofday (), stats, metrics)
    | _ -> Error "daemon returned an error reply"
  in
  let render ~socket ~prev (now, stats, metrics) =
    let served = int_mem "served" stats in
    let errors = int_mem "errors" stats in
    let timeouts = int_mem "timeouts" stats in
    let cached = int_mem "cached" stats in
    let cache = Option.value ~default:J.Null (mem "cache" stats) in
    let hists = histograms_by ~family:"ctam_serve_request_seconds" ~by:"op" metrics in
    let total_sum =
      List.fold_left
        (fun a (_, v) -> match v with M.Histogram h -> a +. h.sum | _ -> a)
        0. hists
    in
    let dt, dserved, dsum =
      match prev with
      | Some (t0, served0, sum0) ->
          (now -. t0, served - served0, total_sum -. sum0)
      | None -> (0., 0, 0.)
    in
    let rps = if dt > 0. then float_of_int dserved /. dt else 0. in
    let workers = max 1 (int_mem "workers" stats) in
    let util =
      if dt > 0. then
        100. *. dsum /. (dt *. float_of_int workers)
      else 0.
    in
    let lookups =
      int_mem "memory_hits" cache + int_mem "memory_misses" cache
    in
    let hits = int_mem "memory_hits" cache + int_mem "disk_hits" cache in
    let hit_rate =
      if lookups > 0 then 100. *. float_of_int hits /. float_of_int lookups
      else 0.
    in
    let heap_mib =
      float_of_int (int_mem "heap_words" (Option.value ~default:J.Null (mem "gc" metrics)))
      *. float_of_int (Sys.word_size / 8)
      /. (1024. *. 1024.)
    in
    Fmt.pr "ctamap top — %s — v%s — uptime %.0fs — %d workers@." socket
      (str_mem "version" stats)
      (float_mem "uptime_seconds" stats)
      workers;
    Fmt.pr
      "requests: %d served (%.1f rps), %d errors, %d timeouts, %d cached@."
      served rps errors timeouts cached;
    Fmt.pr
      "plan cache: %d entries, %.1f MiB, %.1f%% hit rate (mem %d / disk %d)@."
      (int_mem "entries" cache)
      (float_of_int (int_mem "bytes" cache) /. (1024. *. 1024.))
      hit_rate (int_mem "memory_hits" cache) (int_mem "disk_hits" cache);
    (match mem "journal" stats with
    | Some (J.Obj _ as jn) ->
        Fmt.pr "journal: %d records, %.1f MiB, %d rotations, %d failures@."
          (int_mem "records" jn)
          (float_of_int (int_mem "bytes" jn) /. (1024. *. 1024.))
          (int_mem "rotations" jn)
          (int_mem "write_failures" jn)
    | _ -> Fmt.pr "journal: off@.");
    (match mem "slowlog" stats with
    | Some (J.Obj _ as sl) ->
        Fmt.pr "slowlog: %d recorded (threshold %.0f ms)@."
          (int_mem "recorded" sl)
          (float_mem "threshold_ms" sl)
    | _ -> ());
    Fmt.pr "heap: %.1f MiB resident — workers %.1f%% busy@." heap_mib
      (Float.min 100. util);
    Fmt.pr "@.%-10s %9s %10s %10s %10s@." "op" "count" "mean ms" "p50 ms"
      "p99 ms";
    List.iter
      (fun (op, v) ->
        match v with
        | M.Histogram { count; sum; _ } when count > 0 ->
            let q p =
              match M.quantile v p with Some s -> s *. 1000. | None -> 0.
            in
            Fmt.pr "%-10s %9d %10.2f %10.2f %10.2f@." op count
              (sum /. float_of_int count *. 1000.)
              (q 0.5) (q 0.99)
        | _ -> ())
      (List.sort compare hists);
    (now, served, total_sum)
  in
  let run socket interval count log_level =
    let* () = set_log_level log_level in
    let* () =
      if interval <= 0. then Error "--interval must be positive" else Ok ()
    in
    let* () = if count < 0 then Error "--count must be >= 0" else Ok () in
    let clear = count <> 1 && Unix.isatty Unix.stdout in
    let rec loop i prev =
      match poll socket with
      | Error e -> `Error (false, e)
      | Ok sample ->
          if clear then Fmt.pr "\027[2J\027[H%!";
          let prev = render ~socket ~prev sample in
          Fmt.pr "%!";
          if count > 0 && i + 1 >= count then `Ok ()
          else begin
            Unix.sleepf interval;
            loop (i + 1) (Some prev)
          end
    in
    loop 0 None
  in
  let socket =
    Arg.(
      value
      & opt string "ctamap.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket to connect to.")
  in
  let interval =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between polls.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) polls (0 = run until interrupted).  \
             $(b,--count 1) prints one snapshot without clearing the \
             screen.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live monitor for a running mapping daemon: polls the stats and \
          metrics wire ops and renders request rate, per-op latency \
          quantiles, plan-cache hit rate, journal and slowlog state, \
          resident heap and worker utilization.")
    Term.(ret (const run $ socket $ interval $ count $ log_level_arg))

(* [ctamap simtrace]: replay an external memory-access trace on a
   simulated hierarchy.  The frontend streams the file (gzip accepted)
   through fixed-size chunk buffers, so trace size is unbounded; the
   engine sees the same generator-backed streams the DSL compiler
   produces, and --sample-sets / --policy compose unchanged. *)
let simtrace_cmd =
  let module Ingest = Ctam_tracein.Ingest in
  let run file machine scale policy cores interleave instr lossy fold_bits
      rebase split sample_sets json log_level metrics_out =
    let* () = set_log_level log_level in
    let* machine, opts, sample_sets =
      build_request ~op:"trace" ~machine ~scale ?policy ~cores ~interleave
        ~instr ~lossy ?fold_bits ~rebase ?split ~sample_sets ()
      >>= Request.parse_replay
    in
    match
      Ingest.run ~sample_sets ~machine opts (Ctam_tracein.Reader.File file)
    with
    | exception Ingest.Error e -> `Error (false, e)
    | exception Sys_error e -> `Error (false, e)
    | stats, scan ->
        let* () = write_metrics metrics_out in
        if json then
          print_endline
            (Ctam_util.Json.to_string
               (Ingest.report_json ~machine opts scan stats))
        else begin
          Fmt.pr "%s on %s: %d lines, %d records, %d malformed@." file
            machine.Topology.name scan.Ingest.scanned_lines scan.Ingest.records
            scan.Ingest.malformed;
          Array.iteri
            (fun c n -> Fmt.pr "  core %2d: %d accesses@." c n)
            scan.Ingest.per_core;
          Fmt.pr "%a@." Stats.pp stats
        end;
        `Ok ()
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Trace file: Valgrind Lackey text ($(b,valgrind --tool=lackey \
             --trace-mem=yes)), optionally gzip-compressed.")
  in
  let cores =
    Arg.(
      value & opt int 1
      & info [ "cores" ] ~docv:"K"
          ~doc:"Interleave the trace across $(docv) simulated cores.")
  in
  let interleave =
    Arg.(
      value
      & opt string "round-robin"
      & info [ "interleave" ] ~docv:"MODE"
          ~doc:
            "Multi-core dealing: $(b,round-robin) (records to cores in \
             arrival order) or $(b,tagged) (honour $(b,N:) core prefixes and \
             $(b,@T) timestamps).")
  in
  let instr =
    Arg.(
      value & flag
      & info [ "instr" ]
          ~doc:"Replay $(b,I) instruction fetches too (default: data only).")
  in
  let lossy =
    Arg.(
      value & flag
      & info [ "lossy" ]
          ~doc:
            "Count malformed lines and keep going (default: fail with the \
             line position).")
  in
  let fold_bits =
    Arg.(
      value
      & opt (some int) None
      & info [ "fold-bits" ] ~docv:"B"
          ~doc:
            "Fold addresses into a 2^$(docv)-byte window (after any \
             rebasing), so a sparse address space exercises a small \
             hierarchy.")
  in
  let rebase =
    Arg.(
      value & flag
      & info [ "rebase" ]
          ~doc:"Subtract the smallest address in the trace before mapping.")
  in
  let split =
    Arg.(
      value
      & opt (some int) None
      & info [ "split" ] ~docv:"BYTES"
          ~doc:
            (Printf.sprintf
               "Expand each record into one access per $(docv)-byte line \
                its [addr, addr+size) span touches (default: base address \
                only).  A record whose span covers more than %d lines is \
                malformed."
               Ingest.max_split_lines))
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the ctam-simtrace-v1 JSON report.")
  in
  Cmd.v
    (Cmd.info "simtrace"
       ~doc:
         "Replay a memory-access trace (Valgrind Lackey text format) on the \
          simulated cache hierarchy and report hit/miss statistics.  \
          Composes with --policy, --sample-sets and topology files; see the \
          TRACE FORMATS section of $(b,ctamap --help).")
    Term.(
      ret
        (const run $ file $ machine_arg $ scale_arg $ policy_arg $ cores
       $ interleave $ instr $ lossy $ fold_bits $ rebase $ split
       $ sample_sets_arg $ json $ log_level_arg $ metrics_out_arg))

(* [ctamap cache stats|purge]: maintenance of the shared on-disk cache
   directory (compiled plans + tune outcomes).  Safe against a running
   daemon: entries are immutable and content-addressed. *)
let cache_cmd =
  let module Cachetool = Ctam_serve.Cachetool in
  let module J = Ctam_util.Json in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:
            "Cache directory (the daemon's --cache-dir, or tune's --cache).")
  in
  let prefix_arg =
    let doc =
      Printf.sprintf "Restrict to one entry family: %s."
        (String.concat " or "
           (List.map
              (fun p -> Printf.sprintf "$(b,%s)" p)
              Cachetool.all_prefixes))
    in
    Arg.(value & opt (some string) None & info [ "prefix" ] ~docv:"PREFIX" ~doc)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON.")
  in
  let check_prefix = function
    | None -> Ok ()
    | Some p when List.mem p Cachetool.all_prefixes -> Ok ()
    | Some p ->
        Error
          (Printf.sprintf "unknown --prefix '%s' (known: %s)" p
             (String.concat ", " Cachetool.all_prefixes))
  in
  let parse_duration s =
    let fail () =
      Error
        (Printf.sprintf "bad duration '%s' (use e.g. 90, 45s, 30m, 12h, 7d)" s)
    in
    let n = String.length s in
    if n = 0 then fail ()
    else
      let unit, digits =
        match s.[n - 1] with
        | 's' -> (1., String.sub s 0 (n - 1))
        | 'm' -> (60., String.sub s 0 (n - 1))
        | 'h' -> (3600., String.sub s 0 (n - 1))
        | 'd' -> (86400., String.sub s 0 (n - 1))
        | _ -> (1., s)
      in
      match float_of_string_opt digits with
      | Some v when v >= 0. -> Ok (v *. unit)
      | _ -> fail ()
  in
  let stats_run dir prefix json =
    let* () = check_prefix prefix in
    if json then
      print_endline (J.to_string (Cachetool.stats_json ?prefix ~dir ()))
    else begin
      let now = Unix.gettimeofday () in
      List.iter
        (fun f ->
          Fmt.pr "%s: %d entries, %d bytes" f.Cachetool.prefix f.entries
            f.bytes;
          (match (f.oldest, f.newest) with
          | Some o, Some n ->
              Fmt.pr " (ages %.0fs-%.0fs)" (max 0. (now -. n))
                (max 0. (now -. o))
          | _ -> ());
          Fmt.pr "@.")
        (Cachetool.stats ?prefix ~dir ())
    end;
    `Ok ()
  in
  let purge_run dir prefix older_than json metrics_out =
    let* () = check_prefix prefix in
    let* older_than =
      match older_than with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_duration s)
    in
    if json then
      print_endline
        (J.to_string (Cachetool.purge_json ?prefix ?older_than ~dir ()))
    else
      List.iter
        (fun r ->
          Fmt.pr "%s: removed %d entries (%d bytes), kept %d@."
            r.Cachetool.p_prefix r.removed r.removed_bytes r.kept)
        (Cachetool.purge ?prefix ?older_than ~dir ());
    let* () = write_metrics metrics_out in
    `Ok ()
  in
  let older_than_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "older-than" ] ~docv:"DUR"
          ~doc:
            "Only remove entries whose file is older than $(docv): seconds, \
             or a number with an $(b,s)/$(b,m)/$(b,h)/$(b,d) suffix.")
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Per-family entry counts, byte totals and entry ages of a cache \
            directory.")
      Term.(ret (const stats_run $ dir_arg $ prefix_arg $ json_arg))
  in
  let purge_cmd =
    Cmd.v
      (Cmd.info "purge"
         ~doc:
           "Remove cache entries (optionally one family, optionally only \
            entries older than --older-than).  Safe while a daemon is \
            serving from the directory: entries are immutable and \
            content-addressed, so concurrent readers recompute at worst.")
      Term.(
        ret
          (const purge_run $ dir_arg $ prefix_arg $ older_than_arg $ json_arg
         $ metrics_out_arg))
  in
  let default = Term.(ret (const (`Help (`Pager, Some "cache")))) in
  Cmd.group ~default
    (Cmd.info "cache"
       ~doc:"Maintenance of the shared on-disk plan/tune cache directory.")
    [ stats_cmd; purge_cmd ]

let () =
  (* Hook Parallel.map into the metrics registry; libraries never
     install monitors themselves. *)
  Ctam_telemetry.Runtime.install ();
  let doc = "cache-topology-aware computation mapping (PLDI 2010)" in
  let man =
    [
      `S "REPLACEMENT POLICIES";
      `P
        "Cache levels replace lines by LRU unless a topology file or a \
         $(b,--policy) override selects otherwise.  $(b,--policy NAME) \
         applies to every level; $(b,--policy L1=plru,L2=qlru) binds per \
         level (later bindings win).  Available policies:";
    ]
    @ List.map
        (fun (n, d) -> `I (Printf.sprintf "$(b,%s)" n, d))
        Policy.all
    @ [
        `S "TRACE FORMATS";
        `P
          "$(b,ctamap simtrace) (and the daemon's $(b,trace) op) accept \
           these line notations, freely mixed in one file:";
      ]
    @ List.map
        (fun (n, d) -> `I (Printf.sprintf "$(b,%s)" n, d))
        Ctam_tracein.Ingest.trace_formats
  in
  let info =
    Cmd.info "ctamap" ~version:Ctam_exp.Build_info.version ~doc ~man
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            machines_cmd; groups_cmd; map_cmd; run_cmd; simulate_cmd;
            simtrace_cmd; compare_cmd; tune_cmd; codegen_cmd; check_cmd;
            dump_cmd; emit_c_cmd; reuse_cmd; trace_cmd; report_cmd;
            experiment_cmd; cache_cmd; serve_cmd; client_cmd; top_cmd;
          ]))
