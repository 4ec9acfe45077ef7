(* Tests for the experiment-support library. *)

open Ctam_exp

let check_bool = Alcotest.(check bool)

let test_table () =
  let t =
    Report.table ~header:[ "app"; "Base"; "Topo" ]
      [ [ "galgel"; "1.00"; "0.72" ]; [ "cg"; "1.00"; "0.69" ] ]
  in
  check_bool "has header" true (Astring.String.is_infix ~affix:"app" t);
  check_bool "has row" true (Astring.String.is_infix ~affix:"galgel" t);
  check_bool "has separator" true (Astring.String.is_infix ~affix:"---" t)

let test_table_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Report.table: ragged row")
    (fun () -> ignore (Report.table ~header:[ "a"; "b" ] [ [ "x" ] ]))

let test_table_geomean () =
  let t =
    Report.table ~geomean:"geomean" ~header:[ "app"; "Base"; "Topo" ]
      [ [ "galgel"; "1.00"; "0.72" ]; [ "cg"; "4.00"; "0.50" ] ]
  in
  check_bool "has geomean label" true
    (Astring.String.is_infix ~affix:"geomean" t);
  (* geomean(1,4)=2, geomean(0.72,0.50)=0.6 *)
  check_bool "col 1 geomean" true (Astring.String.is_infix ~affix:"2.000" t);
  check_bool "col 2 geomean" true (Astring.String.is_infix ~affix:"0.600" t);
  check_bool "no footnote without skips" false
    (Astring.String.is_infix ~affix:"*" t);
  (* non-numeric / non-positive cells are skipped, not fatal *)
  let t2 =
    Report.table ~geomean:"geomean" ~header:[ "app"; "val" ]
      [ [ "a"; "n/a" ]; [ "b"; "1.0" ] ]
  in
  check_bool "dash for non-numeric" true
    (Astring.String.is_infix ~affix:"geomean" t2);
  let t3 =
    Report.table ~geomean:"geomean" ~header:[ "app"; "val" ]
      [ [ "a"; "0" ] ]
  in
  check_bool "zero column still renders" true
    (Astring.String.is_infix ~affix:"geomean" t3)

let test_table_geomean_skips_zero_cells () =
  (* A column mixing zero/absent and positive cells: the geomean covers
     the positive cells only, the column is starred, and a footnote
     explains the star.  Never a nan. *)
  let t =
    Report.table ~geomean:"geomean" ~header:[ "app"; "cycles" ]
      [ [ "a"; "0" ]; [ "b"; "2.0" ]; [ "c"; "8.0" ] ]
  in
  check_bool "no nan" false (Astring.String.is_infix ~affix:"nan" t);
  (* geomean(2,8) = 4, the zero cell skipped *)
  check_bool "geomean over positive cells" true
    (Astring.String.is_infix ~affix:"4.000*" t);
  check_bool "footnote" true
    (Astring.String.is_infix ~affix:"* geomean skips zero/absent cells" t);
  (* mixed absent ("-") cells behave the same *)
  let t2 =
    Report.table ~geomean:"geomean" ~header:[ "app"; "v" ]
      [ [ "a"; "-" ]; [ "b"; "3.0" ] ]
  in
  check_bool "absent cell skipped" true
    (Astring.String.is_infix ~affix:"3.000*" t2);
  (* an all-zero column still renders a dash, and since no column
     produced a geomean there is no footnote *)
  let t3 =
    Report.table ~geomean:"geomean" ~header:[ "app"; "v" ]
      [ [ "a"; "0" ]; [ "b"; "0" ] ]
  in
  check_bool "all-zero column dashes" true
    (Astring.String.is_infix ~affix:"-" t3);
  check_bool "no nan in all-zero" false
    (Astring.String.is_infix ~affix:"nan" t3)

let test_table_geomean_empty () =
  (* the edge case of the issue: no rows -> no geomean row, no crash *)
  let t = Report.table ~geomean:"geomean" ~header:[ "a"; "b" ] [] in
  check_bool "no geomean row on empty table" false
    (Astring.String.is_infix ~affix:"geomean" t);
  check_bool "header still present" true
    (Astring.String.is_infix ~affix:"a" t)

let test_means () =
  Alcotest.(check (float 1e-9)) "geomean" 2. (Report.geomean [ 1.; 4. ]);
  Alcotest.check_raises "geomean empty"
    (Invalid_argument "Report.geomean: empty") (fun () ->
      ignore (Report.geomean []))

let prop_geomean_between =
  QCheck.Test.make ~name:"geomean within min/max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.1 10.))
    (fun vs ->
      let g = Report.geomean vs in
      let mn = List.fold_left min infinity vs in
      let mx = List.fold_left max 0. vs in
      g >= mn -. 1e-9 && g <= mx +. 1e-9)

(* --- timeline trace export ------------------------------------------ *)

module J = Ctam_util.Json

let check_int = Alcotest.(check int)

let small_profile =
  lazy
    (let machine = Ctam_arch.Machines.harpertown ~scale:64 () in
     let prog =
       Ctam_workloads.Kernel.small_program (Ctam_workloads.Suite.by_name "cg")
     in
     Run_report.profile ~timeline_window:1024 Ctam_core.Mapping.Topology_aware
       ~machine prog)

let test_trace_json_structure () =
  let p = Lazy.force small_profile in
  let tl = p.Run_report.sink in
  check_bool "profile ?timeline_window keeps a timeline" true
    (Ctam_cachesim.Sink.window tl = Some 1024);
  let j =
    Trace_export.trace_json
      ~compile_timings:p.Run_report.compiled.Ctam_core.Mapping.timings
      ~program:"cg" ~machine:"Harpertown" ~scheme:"topology-aware"
      ~legend:p.Run_report.legend tl
  in
  check_bool "version stamped" true
    (J.member "version" j = Some (J.String Build_info.version));
  let events =
    match J.member "traceEvents" j with
    | Some (J.List es) -> es
    | _ -> Alcotest.fail "no traceEvents list"
  in
  check_bool "events non-empty" true (events <> []);
  let last = Hashtbl.create 16 in
  let phs = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let istr name =
        match J.member name ev with
        | Some (J.Int v) -> v
        | _ -> Alcotest.failf "event missing int %S" name
      in
      let ph =
        match J.member "ph" ev with
        | Some (J.String p) -> p
        | _ -> Alcotest.fail "event missing ph"
      in
      check_bool "has name" true
        (match J.member "name" ev with Some (J.String _) -> true | _ -> false);
      Hashtbl.replace phs ph ();
      let ts = istr "ts" and pid = istr "pid" and tid = istr "tid" in
      if ph = "X" then check_bool "dur >= 0" true (istr "dur" >= 0);
      if ph <> "M" then begin
        (match Hashtbl.find_opt last (pid, tid) with
        | Some prev -> check_bool "monotone ts per track" true (ts >= prev)
        | None -> ());
        Hashtbl.replace last (pid, tid) ts
      end)
    events;
  check_bool "has spans" true (Hashtbl.mem phs "X");
  check_bool "has counters" true (Hashtbl.mem phs "C");
  check_bool "has metadata" true (Hashtbl.mem phs "M");
  (* the embedded run-report series is present and sized consistently *)
  let series =
    match J.member "timeline" p.Run_report.report with
    | Some s -> s
    | None -> Alcotest.fail "report missing timeline member"
  in
  let nw =
    match J.member "num_windows" series with
    | Some (J.Int n) -> n
    | _ -> Alcotest.fail "series missing num_windows"
  in
  check_bool "some windows" true (nw > 0);
  (match J.member "cores" series with
  | Some (J.List cores) ->
      check_int "one entry per core"
        (Ctam_cachesim.Sink.num_cores tl)
        (List.length cores);
      List.iter
        (fun c ->
          match J.member "accesses" c with
          | Some (J.List xs) -> check_int "series length" nw (List.length xs)
          | _ -> Alcotest.fail "core missing accesses series")
        cores
  | _ -> Alcotest.fail "series missing cores");
  (* the report's version member matches the build *)
  check_bool "report version" true
    (J.member "version" p.Run_report.report
    = Some (J.String Build_info.version))

(* --- timing outputs ---------------------------------------------------- *)

module H = Harness

let read_file = H.read_file
let read_json = H.read_json

(* Run the CLI with telemetry on; returns its standard output. *)
let run_ctamap args = H.out ~env:[ ("CTAM_TELEMETRY", "1") ] H.ctamap args

let member_exn name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" name

let obj_keys = function
  | J.Obj ms -> List.map fst ms
  | _ -> Alcotest.fail "expected an object"

let check_keys = Alcotest.(check (list string))
let compile_passes = [ "group"; "distribute"; "schedule"; "trace" ]

(* The report's timings_seconds and the --profile phase table name the
   frontend passes of a DSL source, the compile passes and the
   simulation, in pipeline order; a builtin has no frontend passes. *)
let test_report_timing_keys () =
  let json = Filename.temp_file "ctam_report" ".json" in
  let text =
    run_ctamap [ "run"; H.fig5; "--profile"; "--json"; json ]
  in
  let dsl_keys = [ "parse"; "lower" ] @ compile_passes @ [ "simulate" ] in
  check_keys "fig5 timings_seconds" dsl_keys
    (obj_keys (member_exn "timings_seconds" (read_json json)));
  let table =
    match Astring.String.cut ~sep:"compile/simulate phases:\n" text with
    | Some (_, rest) -> (
        match Astring.String.cut ~sep:"\n\n" rest with
        | Some (table, _) -> table
        | None -> rest)
    | None -> Alcotest.fail "no phase table in --profile output"
  in
  let rows =
    match String.split_on_char '\n' table with
    | _header :: _rule :: rows ->
        List.map
          (fun row -> List.hd (String.split_on_char ' ' row))
          (List.filter (fun r -> r <> "") rows)
    | _ -> Alcotest.fail "phase table has no rows"
  in
  check_keys "fig5 --profile phase table" dsl_keys rows;
  ignore
    (run_ctamap
       [ "run"; "cg"; "-m"; "harpertown"; "--scale"; "64"; "--json"; json ]);
  check_keys "builtin timings_seconds" (compile_passes @ [ "simulate" ])
    (obj_keys (member_exn "timings_seconds" (read_json json)));
  Sys.remove json

(* The compiler track of a Chrome trace: one span per frontend and
   compile pass, in pipeline order. *)
let test_trace_compile_track () =
  let out = Filename.temp_file "ctam_trace" ".json" in
  ignore (run_ctamap [ "trace"; H.fig5; "-o"; out ]);
  let names =
    match member_exn "traceEvents" (read_json out) with
    | J.List evs ->
        List.filter_map
          (fun e ->
            match (J.member "cat" e, J.member "name" e) with
            | Some (J.String "compile"), Some (J.String n) -> Some n
            | _ -> None)
          evs
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  Sys.remove out;
  check_keys "compile track" ([ "parse"; "lower" ] @ compile_passes) names

(* A profiled run of fig5 with telemetry on leaves a
   ctam_phase_seconds series for every frontend and compile pass and
   for the simulation, and charges the simulation's allocation. *)
let test_phase_labels () =
  let snapshot = Filename.temp_file "ctam_metrics" ".json" in
  ignore (run_ctamap [ "run"; H.fig5; "--profile"; "--metrics-out"; snapshot ]);
  let families =
    match member_exn "metrics" (read_json snapshot) with
    | J.List fs -> fs
    | _ -> Alcotest.fail "metrics is not a list"
  in
  Sys.remove snapshot;
  let phases name =
    match
      List.find_opt (fun f -> J.member "name" f = Some (J.String name)) families
    with
    | None -> Alcotest.failf "no %s family" name
    | Some f -> (
        match member_exn "series" f with
        | J.List series ->
            List.filter_map
              (fun s ->
                match J.member "phase" (member_exn "labels" s) with
                | Some (J.String p) -> Some p
                | _ -> None)
              series
        | _ -> Alcotest.failf "%s has no series list" name)
  in
  let seconds = phases "ctam_phase_seconds" in
  List.iter
    (fun p ->
      check_bool ("ctam_phase_seconds{phase=" ^ p ^ "}") true
        (List.mem p seconds))
    ([ "frontend.parse"; "frontend.lower" ]
    @ List.map (fun p -> "mapping." ^ p) compile_passes
    @ [ "simulate" ]);
  List.iter
    (fun family ->
      check_bool (family ^ "{phase=simulate}") true
        (List.mem "simulate" (phases family)))
    [ "ctam_phase_minor_words_total"; "ctam_phase_major_words_total" ]

(* --- pinned observed outputs ------------------------------------------ *)

(* Digests of what an observed run reports: the run report less its
   wall-clock members, the Chrome trace and the heatmaps.  The simulated
   numbers behind them are pinned elsewhere, so a change here is a
   change in what the probe sink derives from the events.  A change
   that alters plans re-records them, as it does test_core's mesa
   digest. *)
let digest s = Digest.to_hex (Digest.string s)

let report_digest (p : Run_report.profile) =
  match p.Run_report.report with
  | J.Obj ms ->
      digest
        (J.to_string ~minify:true
           (J.Obj
              (List.filter
                 (fun (k, _) -> k <> "timings_seconds" && k <> "telemetry")
                 ms)))
  | _ -> Alcotest.fail "report is not an object"

let sp_windowed =
  lazy
    (Run_report.profile ~timeline_window:2048 Ctam_core.Mapping.Topology_aware
       ~machine:(Ctam_arch.Machines.harpertown ~scale:64 ())
       (Ctam_workloads.Kernel.program (Ctam_workloads.Suite.by_name "sp")))

let check_digest = Alcotest.(check string)

let test_pin_reports () =
  let fig5 = Ctam_frontend.Lower.compile (read_file H.fig5) in
  check_digest "fig5 Dunnington/16 Combined"
    "3970d034e177568206814f1e919d7bce"
    (report_digest
       (Run_report.profile Ctam_core.Mapping.Combined
          ~machine:(Ctam_arch.Machines.dunnington ~scale:16 ())
          fig5));
  check_digest "sp Harpertown/64 TopologyAware, window 2048"
    "ea1cb4d3224968b215b1b2bde488fe0a"
    (report_digest (Lazy.force sp_windowed));
  check_digest "cg Dunnington/16 Combined, streamed, 2 sample sets"
    "61462e23b23f0abdefb0b0f7a820b3cf"
    (report_digest
       (Run_report.profile ~stream:true ~sample_sets:2
          Ctam_core.Mapping.Combined
          ~machine:(Ctam_arch.Machines.dunnington ~scale:16 ())
          (Ctam_workloads.Kernel.program (Ctam_workloads.Suite.by_name "cg"))))

let test_pin_trace () =
  let p = Lazy.force sp_windowed in
  let tl = p.Run_report.sink in
  check_digest "sp trace JSON" "a0769346f3a8b22f6b7695a15befce57"
    (digest
       (J.to_string ~minify:true
          (Trace_export.trace_json ~compile_timings:[] ~program:"sp"
             ~machine:"Harpertown" ~scheme:"topology-aware"
             ~legend:p.Run_report.legend tl)));
  check_digest "sp heatmaps" "9b09fa68d327c091d19000f5755270c5"
    (digest
       (String.concat ""
          (List.filter_map
             (fun level -> Ctam_cachesim.Sink.render_heatmap tl ~level)
             (Ctam_cachesim.Sink.levels tl))))

(* --- pinned CLI outputs ------------------------------------------------ *)

(* Digests of what each [ctamap] command prints and writes, on fig5
   (Dunnington/16) and on sp (Harpertown/64), TopologyAware wherever a
   command takes a scheme.  Wall-clock parts are left out: the report's
   [timings_seconds] and [telemetry], the --profile phase table and the
   Chrome trace's compiler track (pid 1).  A change to how a command
   reaches the pipeline must leave every one of them as it is. *)

(* [ctamap args]'s standard output, with each of [outs] (the output
   files named in [args]) replaced by "OUT"; it must exit [code]. *)
let cli ?code ?(outs = []) args =
  List.fold_left
    (fun t path ->
      Astring.String.concat ~sep:"OUT" (Astring.String.cuts ~sep:path t))
    (H.out ?code H.ctamap args)
    outs

let without_members keys = function
  | J.Obj ms -> J.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) ms)
  | j -> j

let json_digest j = digest (J.to_string ~minify:true j)

(* The --profile output less its compile/simulate phase table. *)
let without_phase_table text =
  match Astring.String.cut ~sep:"compile/simulate phases:\n" text with
  | None -> Alcotest.fail "no phase table in --profile output"
  | Some (before, rest) -> (
      match Astring.String.cut ~sep:"\n\n" rest with
      | Some (_, after) -> before ^ after
      | None -> before)

(* A Chrome trace less its wall-clock compiler track. *)
let simulated_track trace =
  match trace with
  | J.Obj ms ->
      J.Obj
        (List.map
           (function
             | "traceEvents", J.List evs ->
                 ( "traceEvents",
                   J.List
                     (List.filter
                        (fun e -> J.member "pid" e <> Some (J.Int 1))
                        evs) )
             | m -> m)
           ms)
  | _ -> Alcotest.fail "trace is not an object"

(* [with_file f] is [f path] for a fresh temporary file, removed after. *)
let with_file f =
  let path = Filename.temp_file "ctam_cli" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let report_file_digest path =
  json_digest
    (without_members [ "timings_seconds"; "telemetry" ] (read_json path))

let cli_digests ~name program =
  let pin what v = (name ^ " " ^ what, v) in
  let s = program @ [ "-s"; "topology" ] in
  let out cmd args = digest (cli ((cmd :: s) @ args)) in
  [
    pin "map" (out "map" []);
    pin "run" (out "run" []);
    pin "run --check" (out "run" [ "--check" ]);
    pin "simulate" (out "simulate" []);
    pin "codegen -c 0" (digest (cli (("codegen" :: program) @ [ "-c"; "0" ])));
    pin "codegen -c 3" (digest (cli (("codegen" :: program) @ [ "-c"; "3" ])));
    pin "reuse" (out "reuse" []);
    pin "emit-c" (out "emit-c" []);
    pin "check --inject bad-order"
      (digest (cli ~code:124 (("check" :: s) @ [ "--inject"; "bad-order" ])));
    pin "run --profile"
      (digest (without_phase_table (cli (("run" :: s) @ [ "--profile" ]))));
  ]
  @ with_file (fun f ->
        ignore (cli (("run" :: s) @ [ "--json"; f ]));
        [ pin "run --json file" (report_file_digest f) ])
  @ with_file (fun f ->
        ignore (cli (("run" :: s) @ [ "--window"; "2048"; "--json"; f ]));
        [ pin "run --window 2048 --json file" (report_file_digest f) ])
  @ with_file (fun f ->
        let text = cli ~outs:[ f ] (("check" :: s) @ [ "--json"; f ]) in
        [
          pin "check" (digest text);
          pin "check --json file" (digest (read_file f));
        ])
  @ with_file (fun fj ->
        with_file (fun fp ->
            let text =
              cli ~outs:[ fj; fp ]
                (("tune" :: program)
                @ [ "--budget"; "4"; "--json"; fj; "--save-params"; fp ])
            in
            [
              pin "tune --budget 4" (digest text);
              pin "tune --json file" (digest (read_file fj));
              pin "tune --save-params file" (digest (read_file fp));
            ]))
  @ with_file (fun f ->
        let text =
          cli ~outs:[ f ]
            (("trace" :: s) @ [ "--window"; "2048"; "--heatmap"; "-o"; f ])
        in
        [
          pin "trace --heatmap" (digest text);
          pin "trace file" (json_digest (simulated_track (read_json f)));
        ])

let test_pin_cli () =
  Alcotest.(check (list (pair string string)))
    "CLI output digests"
    [
      ("fig5 map", "f656f5e385c2d69107aa7c3195b242be");
      ("fig5 run", "a95f335f1239a531833c93f3601c1753");
      ("fig5 run --check", "43dbd01122cf0282c96434da1c0a37a5");
      ("fig5 simulate", "a95f335f1239a531833c93f3601c1753");
      ("fig5 codegen -c 0", "fec9c49e31d882e77e1e3f0587436236");
      ("fig5 codegen -c 3", "8082b59d366f4019988344a95faa50a1");
      ("fig5 reuse", "93f8b2ca4c1380425163d000e5d21b04");
      ("fig5 emit-c", "c25d942795d75824fb34d822e931b3f5");
      ("fig5 check --inject bad-order", "2b803acb696fde8c540390b40c306a11");
      ("fig5 run --profile", "eb5de5e85885373fe01cbb78fef312ca");
      ("fig5 run --json file", "8cba71981ba690b2d4ff1506dd7a7f1d");
      ( "fig5 run --window 2048 --json file",
        "c9aa14c5b45e3c63c01d1365f9f7592c" );
      ("fig5 check", "d816ac917ee2096ae3605f8bbb9bcf7d");
      ("fig5 check --json file", "dace87295cff728d59267da59eec6e1c");
      ("fig5 tune --budget 4", "5b538b90dc8fd6928b3bf81ad54107ba");
      ("fig5 tune --json file", "d360a9b5ae8e0fa006a51d7424c5e2c9");
      ("fig5 tune --save-params file", "6ad35b6a88c36c5c67886815867eaeca");
      ("fig5 trace --heatmap", "4a54d73a8161fa839eca9c2375cb0a00");
      ("fig5 trace file", "93a259c1dfac84d175873de65de5efa5");
      ("fig5 check --all-schemes", "efe3ee6f5ea95b4c72f28e999e296a62");
      ("sp map", "713d384cd076d3424e034a956f8c94e6");
      ("sp run", "c496300fc85e93f18952a8858e98f65b");
      ("sp run --check", "4105381ce4c79d6c98d92bdf1ff14e28");
      ("sp simulate", "c496300fc85e93f18952a8858e98f65b");
      ("sp codegen -c 0", "667462b9688be7ca007debdd0457c711");
      ("sp codegen -c 3", "294c01ca555cfb8aea46203c65606d99");
      ("sp reuse", "42f9164ebb706edf2594ed0dff368728");
      ("sp emit-c", "bddd463515978780f64fcbc87e1a2c60");
      ("sp check --inject bad-order", "43a40bb059bf4da892bf707444d493b1");
      ("sp run --profile", "a19052b51d842522638c14122e54470e");
      ("sp run --json file", "29ebded70e08e774c0dc0af1cfe4907c");
      ("sp run --window 2048 --json file", "ea1cb4d3224968b215b1b2bde488fe0a");
      ("sp check", "84c950db2fc607f4299f5ef41ba80f0d");
      ("sp check --json file", "5ac18e402c8dbb5cc15bc41b49fd8dcf");
      ("sp tune --budget 4", "4058004483b04fc88ddce7ad3b03a181");
      ("sp tune --json file", "70f5df494afd04dd89caf520155ad36c");
      ("sp tune --save-params file", "6ad35b6a88c36c5c67886815867eaeca");
      ("sp trace --heatmap", "fa36ff83ae03b922444d65579a80ec0a");
      ("sp trace file", "4fbcbe108c9bf1ae93df005b30842213");
    ]
    (cli_digests ~name:"fig5" [ H.fig5 ]
    @ [
        ( "fig5 check --all-schemes",
          digest (cli [ "check"; "--all-schemes"; H.fig5 ]) );
      ]
    @ cli_digests ~name:"sp" [ "sp"; "-m"; "harpertown"; "--scale"; "64" ])

(* Digests of what [ctamap experiment NAME --quick] prints for the six
   experiments that take seconds: every table, section and line of text
   of a report, down to the byte. *)
let test_pin_experiments () =
  Alcotest.(check (list (pair string string)))
    "experiment digests"
    [
      ("table1", "d8399e6b7dfac83dfe53e5e9e88b1135");
      ("table2", "dca915051ac23cad767ccbee9a435ab4");
      ("fig2", "e93cea618bc8f4f0aff80b02a139c0bb");
      ("fig19", "2d6029cc56316f0b3e1b1541560589af");
      ("depstats", "8cd40aa0e51632dd507c8b54f48d6831");
      ("depmode", "88387bb2367b769f5e5a41a70e1556a1");
    ]
    (List.map
       (fun name -> (name, digest (cli [ "experiment"; name; "--quick" ])))
       [ "table1"; "table2"; "fig2"; "fig19"; "depstats"; "depmode" ])

(* [ctamap trace]'s file is the Chrome trace a daemon's traced run
   returns for the same document, outside the wall-clock compiler
   track: the CLI keeps no pipeline of its own. *)
let test_cli_trace_is_served () =
  let summary trace =
    match simulated_track trace with
    | J.Obj ms ->
        List.map
          (fun (k, v) ->
            ( k,
              if k = "traceEvents" then json_digest v
              else J.to_string ~minify:true v ))
          ms
    | _ -> Alcotest.fail "trace is not an object"
  in
  let cli_trace =
    with_file (fun f ->
        ignore
          (cli
             [ "trace"; "sp"; "-m"; "harpertown"; "--scale"; "64"; "-s";
               "topology"; "--window"; "2048"; "-o"; f ]);
        read_json f)
  in
  let served =
    match
      Ctam_serve.Request.parse
        (J.Obj
           [
             ("op", J.String "run");
             ("program", J.String "sp");
             ("machine", J.String "harpertown");
             ("scale", J.Int 64);
             ("scheme", J.String "topology");
             ("trace", J.Bool true);
             ("trace_window", J.Int 2048);
           ])
    with
    | Ok r -> member_exn "trace" (fst (Ctam_serve.Request.execute r))
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (pair string string)))
    "CLI trace = served trace" (summary served) (summary cli_trace)

(* --- streamed / sampled simulation ----------------------------------- *)

let test_profile_streamed_matches_dense () =
  (* Generator-backed profiling runs with the full probe stack
     attached, so every counter matrix — not just the aggregate stats
     — must be bit-identical to the dense run's. *)
  let machine = Ctam_arch.Machines.harpertown ~scale:64 () in
  let prog =
    Ctam_workloads.Kernel.small_program (Ctam_workloads.Suite.by_name "cg")
  in
  let dense =
    Run_report.profile Ctam_core.Mapping.Topology_aware ~machine prog
  in
  let streamed =
    Run_report.profile ~stream:true Ctam_core.Mapping.Topology_aware ~machine
      prog
  in
  check_bool "stats bit-identical" true
    (dense.Run_report.stats = streamed.Run_report.stats);
  check_bool "per-core counters identical" true
    (J.member "per_core" dense.Run_report.report
    = J.member "per_core" streamed.Run_report.report);
  check_bool "reuse split identical" true
    (J.member "reuse" dense.Run_report.report
    = J.member "reuse" streamed.Run_report.report)

let test_profile_simulation_member () =
  (* The report documents how the simulation ran.  harpertown at
     scale 16 keeps 4 L1 sets, so factor 2 divides every cache. *)
  let machine = Ctam_arch.Machines.harpertown ~scale:16 () in
  let prog =
    Ctam_workloads.Kernel.small_program (Ctam_workloads.Suite.by_name "cg")
  in
  let p =
    Run_report.profile ~stream:true ~sample_sets:2 Ctam_core.Mapping.Combined
      ~machine prog
  in
  let sim =
    match J.member "simulation" p.Run_report.report with
    | Some s -> s
    | None -> Alcotest.fail "report missing simulation member"
  in
  check_bool "stream" true (J.member "stream" sim = Some (J.Bool true));
  check_bool "sample_sets" true (J.member "sample_sets" sim = Some (J.Int 2));
  (* A default profile documents the defaults. *)
  let d = Run_report.profile Ctam_core.Mapping.Combined ~machine prog in
  (match J.member "simulation" d.Run_report.report with
  | Some s ->
      check_bool "defaults" true
        (J.member "stream" s = Some (J.Bool false)
        && J.member "sample_sets" s = Some (J.Int 1)
        && J.member "memo_hits" s = Some J.Null)
  | None -> Alcotest.fail "default report missing simulation member")

let test_sampling_error_bounds_suite () =
  (* Measured envelope of constant-bit set sampling at factor 2 across
     the whole kernel suite × three machines (machine scale 4 keeps
     16 L1 sets).  Structural counters must be exact; the cycles
     estimate was measured at <= 0.34 relative error worst-case
     (mesa/dunnington) and ~0.07 on average — asserted here with
     headroom so the gate flags regressions, not noise. *)
  let machines =
    [
      Ctam_arch.Machines.dunnington ~scale:4 ();
      Ctam_arch.Machines.harpertown ~scale:4 ();
      Ctam_arch.Machines.nehalem ~scale:4 ();
    ]
  in
  let errs = ref [] in
  List.iteri
    (fun i kernel ->
      let prog = Ctam_workloads.Kernel.small_program kernel in
      (* Rotate kernels over the machines (every kernel sampled, every
         machine exercised) — the full matrix at real problem sizes is
         the bench harness's job (test_cachesim "scale sweep"). *)
      let machine = List.nth machines (i mod List.length machines) in
      (* One compile, two simulations: streamed-vs-dense identity is
         covered elsewhere, this gate is about sampling. *)
      let c =
        Ctam_core.Mapping.compile Ctam_core.Mapping.Combined ~machine prog
      in
      let exact = Ctam_core.Mapping.simulate c in
      let approx = Ctam_core.Mapping.simulate ~sample_sets:2 c in
      let e = Ctam_cachesim.Stats.rel_errors ~exact ~approx in
      check_bool "structural counters exact" true
        (List.assoc "total_accesses" e = 0. && List.assoc "barriers" e = 0.);
      let c = List.assoc "cycles" e in
      check_bool
        (Printf.sprintf "%s cycles error %.3f <= 0.45"
           kernel.Ctam_workloads.Kernel.name c)
        true (c <= 0.45);
      errs := c :: !errs)
    Ctam_workloads.Suite.all;
  let mean =
    List.fold_left ( +. ) 0. !errs /. float_of_int (List.length !errs)
  in
  check_bool (Printf.sprintf "mean cycles error %.3f <= 0.15" mean) true
    (mean <= 0.15)

(* --- report diff ----------------------------------------------------- *)

let mk_report ?(cycles = 1000) ?(mem = 100) ?(miss_rate = 0.5) name =
  J.Obj
    [
      ("ctam_report_version", J.Int 1);
      ("version", J.String Build_info.version);
      ("program", J.String name);
      ("scheme", J.String "topology-aware");
      ("machine", J.Obj [ ("name", J.String "Dunnington") ]);
      ( "stats",
        J.Obj
          [
            ("cycles", J.Int cycles);
            ("mem_accesses", J.Int mem);
            ("barriers", J.Int 4);
            ( "per_level",
              J.List
                [
                  J.Obj
                    [ ("level", J.Int 1); ("miss_rate", J.Float miss_rate) ];
                ] );
          ] );
    ]

let test_report_diff () =
  let a = [ mk_report "sp" ] in
  (* identical inputs: nothing changed, nothing regressed *)
  let text, n = Report_diff.render ~path_a:"a" ~path_b:"b" a a in
  check_int "no regressions when identical" 0 n;
  check_bool "says identical" true
    (Astring.String.is_infix ~affix:"all identical" text);
  (* 10% more cycles: flagged at the default 2% threshold *)
  let b = [ mk_report ~cycles:1100 "sp" ] in
  let text, n = Report_diff.render ~path_a:"a" ~path_b:"b" a b in
  check_int "one regression" 1 n;
  check_bool "regression marked" true
    (Astring.String.is_infix ~affix:"!" text);
  check_bool "delta shown" true
    (Astring.String.is_infix ~affix:"+10.00%" text);
  (* a looser threshold lets the same delta pass *)
  let _, n = Report_diff.render ~threshold:20. ~path_a:"a" ~path_b:"b" a b in
  check_int "threshold respected" 0 n;
  (* improvements are shown but never flagged *)
  let c = [ mk_report ~cycles:900 "sp" ] in
  let text, n = Report_diff.render ~path_a:"a" ~path_b:"b" a c in
  check_int "improvement is not a regression" 0 n;
  check_bool "improvement shown" true
    (Astring.String.is_infix ~affix:"-10.00%" text);
  (* keys that only exist on one side are reported, not compared *)
  let d = [ mk_report "unrelated" ] in
  let text, n = Report_diff.render ~path_a:"a" ~path_b:"b" a d in
  check_int "no phantom regressions" 0 n;
  check_bool "unmatched key listed" true
    (Astring.String.is_infix ~affix:"only in B" text)

let test_report_diff_sweep_objects () =
  let sweep geo =
    J.Obj
      [
        ("version", J.String Build_info.version);
        ("machine", J.String "Nehalem");
        ("scheme", J.String "combined");
        ("quick", J.Bool true);
        ( "workloads",
          J.List
            [
              J.Obj
                [
                  ("name", J.String "cg");
                  ("cycles", J.Int 500);
                  ("mem_accesses", J.Int 50);
                  ("barriers", J.Int 3);
                  ("vs_base", J.Float 0.8);
                ];
            ] );
        ("geomean_vs_base", J.Float geo);
      ]
  in
  let text, n =
    Report_diff.render ~path_a:"a" ~path_b:"b" [ sweep 0.8 ] [ sweep 0.9 ]
  in
  check_int "geomean regression flagged" 1 n;
  check_bool "geomean key present" true
    (Astring.String.is_infix ~affix:"geomean" text);
  let _, n =
    Report_diff.render ~path_a:"a" ~path_b:"b" [ sweep 0.9 ] [ sweep 0.8 ]
  in
  check_int "geomean improvement passes" 0 n

(* --- parallel bench sweep ------------------------------------------- *)

(* The acceptance bar of the parallel driver: --jobs must not change a
   single byte of the JSONL trajectories.  Run the full sweep serially
   and on 4 domains and compare the minified rendering line for line.
   (scale 64 keeps the caches tiny so the quick sweep stays cheap.)
   The serial sweep's simulated numbers are pinned too: the digest of
   every workload's cycles, mem_accesses, total_accesses and barriers,
   5 schemes x 12 kernels, recorded before `Distribute.balance` and
   `Mapping.compile` lost their copies.  A change to any plan fails
   here. *)
let test_bench_sweep_parallel_deterministic () =
  let machine = Ctam_arch.Machines.harpertown ~scale:64 () in
  let render objs =
    List.map (Ctam_util.Json.to_string ~minify:true) objs
  in
  let sweep = Run_report.bench_sweep ~jobs:1 ~quick:true ~machine () in
  let serial = render sweep in
  let parallel =
    render (Run_report.bench_sweep ~jobs:4 ~quick:true ~machine ())
  in
  Alcotest.(check (list string)) "byte-identical JSONL" serial parallel;
  check_bool "one object per scheme" true
    (List.length serial = List.length Ctam_core.Mapping.all_schemes);
  let numbers = Buffer.create 4096 in
  List.iter
    (fun obj ->
      let scheme = J.to_string_value (J.member_exn "scheme" obj) in
      List.iter
        (fun w ->
          Printf.bprintf numbers "%s/%s" scheme
            (J.to_string_value (J.member_exn "name" w));
          List.iter
            (fun key ->
              Printf.bprintf numbers " %d" (J.to_int (J.member_exn key w)))
            [ "cycles"; "mem_accesses"; "total_accesses"; "barriers" ];
          Buffer.add_char numbers '\n')
        (J.to_list (J.member_exn "workloads" obj)))
    sweep;
  check_bool "5 schemes x 12 kernels" true
    (List.length (String.split_on_char '\n' (Buffer.contents numbers)) = 61);
  Alcotest.(check string)
    "simulated numbers" "e42cb238926819a4750be9a7af2e0649"
    (Digest.to_hex (Digest.string (Buffer.contents numbers)))

let test_experiments_all_parallel_deterministic () =
  (* Same property for the experiment registry, on a cheap subset:
     table1 is pure topology rendering, dep_stats is analysis only.
     Experiments.all runs everything, so compare by_name runs under the
     hood instead: registry order and report text must not depend on
     domains. *)
  let t1_serial = Experiments.by_name "table1" ~quick:true () in
  let results =
    Ctam_util.Parallel.map ~domains:3
      (fun name -> (name, Experiments.by_name name ~quick:true ()))
      [ "table1"; "depstats" ]
  in
  check_bool "parallel table1 identical" true
    (List.assoc "table1" results = t1_serial);
  check_bool "dep_stats nonempty" true
    (String.length (Report.render (List.assoc "depstats" results)) > 0)

(* --- experiment reports as numbers ------------------------------------ *)

let tables (r : Report.t) =
  List.filter_map (function Report.Table t -> Some t | Text _ -> None) r.blocks

(* Figure 2 normalizes each machine's row to its fastest version, so
   every row's smallest value is exactly 1. *)
let test_fig2_floats () =
  match tables (Experiments.fig2 ~quick:true ()) with
  | [ t ] ->
      check_int "one row per machine" 3 (List.length t.rows);
      List.iter
        (fun (labels, values) ->
          Alcotest.(check (float 0.)) (String.concat " " labels) 1.0
            (List.fold_left Float.min infinity values))
        t.rows
  | ts -> Alcotest.failf "fig2: %d tables" (List.length ts)

(* A compile that got faster prints its overhead with one sign. *)
let test_overhead_sign () =
  let t =
    match tables (Experiments.overhead ~quick:true ()) with
    | t :: _ -> t
    | [] -> Alcotest.fail "overhead: no table"
  in
  let rows = [ ([ "sp" ], [ 1.; 0.76; -24. ]) ] in
  let text = Report.render { title = "o"; blocks = [ Table { t with rows } ] } in
  check_bool "-24%" true (Astring.String.is_infix ~affix:" -24%" text);
  check_bool "no +-" false (Astring.String.is_infix ~affix:"+-" text)

(* --- CLI reports and traces ---------------------------------------------- *)

(* Every example program's [run --json] report reads back as JSON. *)
let test_example_reports () =
  let programs =
    List.filter
      (fun f -> Filename.check_suffix f ".ctam")
      (Array.to_list (Sys.readdir H.examples))
  in
  check_bool "example programs found" true (programs <> []);
  H.with_temp_dir @@ fun dir ->
  List.iter
    (fun f ->
      let json = Filename.concat dir (f ^ ".json") in
      ignore
        (H.out H.ctamap [ "run"; Filename.concat H.examples f; "--json"; json ]);
      ignore (read_json json))
    programs

(* A source nested far past the parser's bounds gets a positioned
   error, not a stack overflow, on a 2 MB stack: 200,000 nested
   parentheses, and 100,000 nested loops (a parser that recursed once
   per loop would overflow past about 25,000). *)
let test_deep_sources () =
  H.with_temp_dir @@ fun dir ->
  let refused cmd text ~affix =
    let path = Filename.concat dir (cmd ^ ".ctam") in
    H.write_file path text;
    ignore
      (H.refused ~env:[ ("OCAMLRUNPARAM", "l=256k") ] ~affix H.ctamap [ cmd; path ])
  in
  let n = 200_000 in
  refused "run"
    ~affix:"line 1, column 1056: expression nested deeper than 1000 levels"
    ("program p; double A[4]; for (i = 0; i < 4; i++) A[i] = "
    ^ String.make n '(' ^ "1.0" ^ String.make n ')' ^ ";\n");
  let prefix = "program p; double A[4]; " and loop = "for (i = 0; i < 4; i++) " in
  refused "dump"
    ~affix:
      (Printf.sprintf "line 1, column %d: loops nested deeper than 1000 levels"
         (String.length prefix + (1000 * String.length loop) + 1))
    (prefix ^ String.concat "" (List.init 100_000 (fun _ -> loop)) ^ "A[i] = 1.0;\n")

(* A Chrome trace-event document: [version], a non-empty [traceEvents]
   whose events carry [ph]/[ts]/[pid]/[tid]/[name] (and [dur] >= 0 for
   an "X" span), timestamps non-decreasing within each (pid, tid) track
   outside the "M" metadata, and at least one span and one counter. *)
let check_chrome_trace ~what j =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  (match J.member "version" j with
  | Some (J.String _) -> ()
  | _ -> fail "missing \"version\" member");
  let events =
    match J.member "traceEvents" j with
    | Some (J.List (_ :: _ as es)) -> es
    | Some (J.List []) -> fail "traceEvents is empty"
    | _ -> fail "missing \"traceEvents\" list"
  in
  let last_ts = Hashtbl.create 64 in
  let spans = ref 0 and counters = ref 0 in
  List.iteri
    (fun i ev ->
      let get name =
        match J.member name ev with
        | Some v -> v
        | None -> fail "event %d: missing %S" i name
      in
      let int_field name =
        match get name with
        | J.Int v -> v
        | _ -> fail "event %d: %S not an integer" i name
      in
      let ph =
        match get "ph" with
        | J.String p -> p
        | _ -> fail "event %d: \"ph\" not a string" i
      in
      (match get "name" with
      | J.String _ -> ()
      | _ -> fail "event %d: \"name\" not a string" i);
      let ts = int_field "ts" and pid = int_field "pid" and tid = int_field "tid" in
      if ts < 0 then fail "event %d: negative ts" i;
      (match ph with
      | "X" ->
          incr spans;
          if int_field "dur" < 0 then fail "event %d: negative dur" i
      | "C" -> incr counters
      | _ -> ());
      if ph <> "M" then begin
        (match Hashtbl.find_opt last_ts (pid, tid) with
        | Some prev when ts < prev ->
            fail "event %d: ts %d < %d on track (pid %d, tid %d)" i ts prev pid
              tid
        | _ -> ());
        Hashtbl.replace last_ts (pid, tid) ts
      end)
    events;
  if !spans = 0 then fail "no duration (ph \"X\") events";
  if !counters = 0 then fail "no counter (ph \"C\") events"

let test_cli_traces_valid () =
  H.with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, args) ->
      let f = Filename.concat dir name in
      ignore (H.out H.ctamap (("trace" :: args) @ [ "-o"; f ]));
      check_chrome_trace ~what:name (read_json f))
    [
      ( "fig5.json",
        [ H.fig5; "-m"; "dunnington"; "-s"; "topology"; "--window"; "512" ] );
      ( "sp.json",
        [ "sp"; "-m"; "dunnington"; "--scale"; "64"; "-s"; "topology";
          "--window"; "2048"; "--heatmap" ] );
    ]

(* [ctamap report diff] exits 0 on a report against itself and non-zero
   against a copy whose every cycle count is inflated about tenfold. *)
let test_cli_report_diff () =
  H.with_temp_dir @@ fun dir ->
  let a = Filename.concat dir "a.json" and b = Filename.concat dir "b.json" in
  ignore
    (H.out H.ctamap [ "run"; "sp"; "--scale"; "64"; "-s"; "topology"; "--json"; a ]);
  ignore (H.out H.ctamap [ "report"; "diff"; a; a ]);
  let rec inflate = function
    | J.Obj ms ->
        J.Obj
          (List.map
             (function
               | "cycles", J.Int n -> ("cycles", J.Int ((10 * n) + 9))
               | k, v -> (k, inflate v))
             ms)
    | J.List l -> J.List (List.map inflate l)
    | j -> j
  in
  H.write_file b (J.to_string (inflate (read_json a)));
  check_bool "inflated cycles exit non-zero" true
    ((H.run H.ctamap [ "report"; "diff"; a; b ]).H.code <> 0)

(* An output path in a missing directory is a "cannot write" error,
   exit 124, for every command that writes one. *)
let test_cli_unwritable_outputs () =
  H.with_temp_dir @@ fun dir ->
  let missing = Filename.concat (Filename.concat dir "missing") in
  List.iter
    (fun args ->
      let r = H.refused ~affix:"cannot write" H.ctamap args in
      Alcotest.(check int) (String.concat " " args) 124 r.H.code)
    [
      [ "dump"; "sp"; "-o"; missing "x.ctam" ];
      [ "emit-c"; "sp"; "-o"; missing "x.c" ];
      [ "trace"; "sp"; "--scale"; "64"; "-o"; missing "x.json" ];
      [ "run"; "sp"; "--scale"; "64"; "--json"; missing "x.json" ];
    ]

(* A --jobs below 1 is refused at the flag. *)
let test_cli_jobs_refused () =
  List.iter
    (fun cmd ->
      ignore
        (H.refused
           ~affix:"option '--jobs': invalid value '0', expected a positive integer"
           H.ctamap [ cmd; "cg"; "--jobs"; "0" ]))
    [ "tune"; "compare" ]

let () =
  Alcotest.run "exp"
    [
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_table;
          Alcotest.test_case "ragged" `Quick test_table_ragged;
          Alcotest.test_case "geomean row" `Quick test_table_geomean;
          Alcotest.test_case "geomean skips zero cells" `Quick
            test_table_geomean_skips_zero_cells;
          Alcotest.test_case "geomean row empty" `Quick
            test_table_geomean_empty;
          Alcotest.test_case "means" `Quick test_means;
          QCheck_alcotest.to_alcotest prop_geomean_between;
        ] );
      ( "trace",
        [
          Alcotest.test_case "trace JSON structure" `Quick
            test_trace_json_structure;
        ] );
      ( "timing outputs",
        [
          Alcotest.test_case "run report timing keys" `Quick
            test_report_timing_keys;
          Alcotest.test_case "trace compile track" `Quick
            test_trace_compile_track;
          Alcotest.test_case "phase labels" `Quick test_phase_labels;
        ] );
      ( "pinned outputs",
        [
          Alcotest.test_case "profile reports" `Quick test_pin_reports;
          Alcotest.test_case "trace and heatmaps" `Quick test_pin_trace;
        ] );
      ( "pinned CLI outputs",
        [
          Alcotest.test_case "fig5 and sp" `Quick test_pin_cli;
          Alcotest.test_case "trace = served trace" `Quick
            test_cli_trace_is_served;
        ] );
      ( "pinned experiments",
        [ Alcotest.test_case "quick reports" `Quick test_pin_experiments ] );
      ( "CLI reports and traces",
        [
          Alcotest.test_case "example reports" `Quick test_example_reports;
          Alcotest.test_case "deep sources on a small stack" `Quick
            test_deep_sources;
          Alcotest.test_case "traces valid" `Quick test_cli_traces_valid;
          Alcotest.test_case "report diff exit codes" `Quick
            test_cli_report_diff;
          Alcotest.test_case "unwritable outputs" `Quick
            test_cli_unwritable_outputs;
          Alcotest.test_case "--jobs 0 refused" `Quick test_cli_jobs_refused;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "streamed profile == dense" `Quick
            test_profile_streamed_matches_dense;
          Alcotest.test_case "simulation member" `Quick
            test_profile_simulation_member;
          Alcotest.test_case "sampling error envelope" `Quick
            test_sampling_error_bounds_suite;
        ] );
      ( "diff",
        [
          Alcotest.test_case "report diff" `Quick test_report_diff;
          Alcotest.test_case "sweep objects" `Quick
            test_report_diff_sweep_objects;
        ] );
      ( "parallel drivers",
        [
          Alcotest.test_case "bench_sweep byte-identical at any --jobs"
            `Slow test_bench_sweep_parallel_deterministic;
          Alcotest.test_case "experiments deterministic under domains" `Quick
            test_experiments_all_parallel_deterministic;
        ] );
      ( "experiment reports",
        [
          Alcotest.test_case "fig2 rows as floats" `Quick test_fig2_floats;
          Alcotest.test_case "overhead sign" `Quick test_overhead_sign;
        ] );
    ]
