(* Tests for the self-telemetry subsystem: metrics registry (per-domain
   shards, exact counter merges, histogram buckets/quantiles), the
   structured logger, spans, the Prometheus renderer, the snapshot
   JSON, and the zero-overhead contract of the instrumented engine. *)

open Ctam_telemetry
module J = Ctam_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* Every test runs with recording on; individual cases toggle and must
   restore. *)
let with_enabled f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) f

(* --- histogram buckets and quantiles --------------------------------- *)

let test_default_buckets () =
  let b = Metrics.Histogram.default_buckets in
  check_int "19 finite bounds" 19 (Array.length b);
  check_float "first bound is 1 µs" 1e-6 b.(0);
  for i = 1 to Array.length b - 1 do
    let ratio = b.(i) /. b.(i - 1) in
    check_bool
      (Printf.sprintf "bound %d is 4x bound %d" i (i - 1))
      true
      (Float.abs (ratio -. 4.) < 1e-9)
  done;
  check_bool "strictly increasing" true
    (Array.for_all Fun.id (Array.mapi (fun i x -> i = 0 || x > b.(i - 1)) b))

let test_histogram_buckets () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  let h =
    Metrics.Histogram.v ~registry:reg ~buckets:[| 1.; 2.; 4. |] "h_buckets"
  in
  List.iter (Metrics.Histogram.observe0 h) [ 0.5; 1.5; 3.0; 8.0 ];
  match Metrics.find (Metrics.scrape reg) "h_buckets" [] with
  | Some (Metrics.Histogram { count; sum; buckets }) ->
      check_int "count" 4 count;
      check_float "sum" 13.0 sum;
      check_int "4 buckets incl +Inf" 4 (Array.length buckets);
      (* cumulative counts against the upper bounds *)
      let expect = [ (1., 1); (2., 2); (4., 3); (infinity, 4) ] in
      List.iteri
        (fun i (bound, cum) ->
          let b, c = buckets.(i) in
          check_bool (Printf.sprintf "bound %d" i) true (b = bound);
          check_int (Printf.sprintf "cum %d" i) cum c)
        expect;
      (* a value exactly on a bound lands in that bound's bucket *)
      Metrics.Histogram.observe0 h 2.0;
      (match Metrics.find (Metrics.scrape reg) "h_buckets" [] with
      | Some (Metrics.Histogram { buckets; _ }) ->
          check_int "le=2 holds the on-bound value" 3 (snd buckets.(1))
      | _ -> Alcotest.fail "histogram vanished")
  | _ -> Alcotest.fail "histogram not scraped"

let test_quantiles () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  let h = Metrics.Histogram.v ~registry:reg ~buckets:[| 1.; 2.; 4. |] "h_q" in
  List.iter (Metrics.Histogram.observe0 h) [ 0.5; 1.5; 3.0; 8.0 ];
  let v =
    match Metrics.find (Metrics.scrape reg) "h_q" [] with
    | Some v -> v
    | None -> Alcotest.fail "histogram not scraped"
  in
  let q p =
    match Metrics.quantile v p with
    | Some x -> x
    | None -> Alcotest.fail "quantile None on non-empty histogram"
  in
  check_float "q0 at bucket start" 0.0 (q 0.0);
  check_float "q0.25 interpolates to first bound" 1.0 (q 0.25);
  check_float "q0.5 interpolates to second bound" 2.0 (q 0.5);
  (* the estimate in the overflow bucket clamps to the last finite bound *)
  check_float "q1 clamps to last finite bound" 4.0 (q 1.0);
  check_bool "quantile of a counter is None" true
    (Metrics.quantile (Metrics.Counter 3) 0.5 = None);
  let empty =
    Metrics.Histogram.v ~registry:reg ~buckets:[| 1. |] "h_q_empty"
  in
  ignore (Metrics.Histogram.series empty []);
  match Metrics.find (Metrics.scrape reg) "h_q_empty" [] with
  | Some ev -> check_bool "quantile of empty is None" true
                 (Metrics.quantile ev 0.5 = None)
  | None -> Alcotest.fail "empty histogram not scraped"

(* A histogram family with no series yet (or labelled series never
   touched) must scrape, render and export without an exception and
   with deterministic output. *)
let test_empty_histogram_family () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  ignore
    (Metrics.Histogram.v ~registry:reg ~labels:[ "op" ] ~buckets:[| 1.; 2. |]
       ~help:"never observed" "h_empty_family");
  (match Metrics.scrape reg with
  | [ f ] ->
      check_bool "family scraped" true (f.Metrics.f_name = "h_empty_family");
      check_int "no series" 0 (List.length f.Metrics.f_series)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 family, got %d" (List.length fs)));
  let rendered = Prometheus.render ~registry:reg () in
  check_bool "prometheus renders the empty family" true
    (String.length rendered > 0);
  let rendered2 = Prometheus.render ~registry:reg () in
  check_bool "deterministic" true (String.equal rendered rendered2);
  check_bool "json renders too" true (Metrics.to_json reg <> J.Null)

(* A scrape racing the very first observations on a fresh domain must
   never throw, and every snapshot must satisfy the exposition
   invariant: the +Inf cumulative bucket equals the count (the count
   is derived from the buckets, so a torn read cannot break it). *)
let test_scrape_races_first_record () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  let h =
    Metrics.Histogram.v ~registry:reg ~labels:[ "op" ] ~buckets:[| 1.; 4. |]
      "h_raced"
  in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        (* Fresh domain: the first observe creates this domain's shard
           cell while the main domain is mid-scrape. *)
        let s = Metrics.Histogram.series h [ "run" ] in
        for i = 1 to 5000 do
          Metrics.Histogram.observe s (float_of_int (i mod 8))
        done;
        Atomic.set stop true)
  in
  let scrapes = ref 0 in
  while not (Atomic.get stop) do
    incr scrapes;
    match Metrics.find (Metrics.scrape reg) "h_raced" [ ("op", "run") ] with
    | None -> () (* cell not created yet: a miss, not an exception *)
    | Some (Metrics.Histogram { count; buckets; _ }) ->
        let inf_cum = snd buckets.(Array.length buckets - 1) in
        if inf_cum <> count then
          Alcotest.fail
            (Printf.sprintf "scrape %d: +Inf cum %d <> count %d" !scrapes
               inf_cum count)
    | Some _ -> Alcotest.fail "histogram scraped as a non-histogram"
  done;
  Domain.join writer;
  match Metrics.find (Metrics.scrape reg) "h_raced" [ ("op", "run") ] with
  | Some (Metrics.Histogram { count; buckets; sum }) ->
      check_int "final count" 5000 count;
      check_int "final +Inf cum" 5000 (snd buckets.(Array.length buckets - 1));
      check_bool "final sum settled" true (sum > 0.)
  | _ -> Alcotest.fail "histogram not scraped after join"

(* The ambient log context: fields ride every line in scope, scopes
   nest, and the stack unwinds on exceptions. *)
let test_log_context () =
  let seen = ref [] in
  let saved_level = Log.current_level () in
  Log.set_level (Some Log.Info);
  Log.set_format `Json;
  Log.set_sink (fun line -> seen := line :: !seen);
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink prerr_endline;
      Log.set_format `Human;
      Log.set_level saved_level)
    (fun () ->
      check_bool "empty outside any scope" true (Log.context () = []);
      Log.with_context
        [ ("request_id", J.Int 9) ]
        (fun () ->
          Log.with_context
            [ ("conn", J.Int 3) ]
            (fun () ->
              check_bool "scopes nest" true
                (Log.context ()
                = [ ("request_id", J.Int 9); ("conn", J.Int 3) ]);
              Log.info ~src:"t" (fun () -> "hello"));
          check_bool "inner scope popped" true
            (Log.context () = [ ("request_id", J.Int 9) ]));
      (match
         Log.with_context [ ("x", J.Int 1) ] (fun () -> failwith "boom")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      check_bool "unwound after exception" true (Log.context () = []);
      let contains line needle =
        let nl = String.length needle and ll = String.length line in
        let rec go i =
          i + nl <= ll && (String.sub line i nl = needle || go (i + 1))
        in
        go 0
      in
      match !seen with
      | [ line ] ->
          check_bool "context fields emitted" true
            (contains line "\"request_id\":9" && contains line "\"conn\":3")
      | _ -> Alcotest.fail "expected exactly one log line");
  (* --log-format parsing accepts the documented spellings only. *)
  check_bool "json parses" true (Log.format_of_string "json" = Ok `Json);
  check_bool "human parses" true (Log.format_of_string "human" = Ok `Human);
  check_bool "text parses" true (Log.format_of_string "text" = Ok `Human);
  check_bool "garbage rejected" true
    (match Log.format_of_string "yaml" with Error _ -> true | Ok _ -> false)

(* --- cross-domain counter merge --------------------------------------- *)

let test_parallel_counter_merge () =
  with_enabled @@ fun () ->
  let c =
    Metrics.Counter.v ~labels:[ "who" ] "test_parallel_counter_merge_total"
  in
  let s = Metrics.Counter.series c [ "workers" ] in
  let n = 64 in
  let items = List.init n Fun.id in
  let results =
    Ctam_util.Parallel.map ~domains:4
      (fun i ->
        Metrics.Counter.inc ~by:i s;
        Metrics.Counter.inc s;
        i)
      items
  in
  check_bool "map result order preserved" true (results = items);
  let expect = (n * (n - 1) / 2) + n in
  let scraped () =
    match
      Metrics.find (Metrics.scrape Metrics.default)
        "test_parallel_counter_merge_total"
        [ ("who", "workers") ]
    with
    | Some (Metrics.Counter total) -> total
    | _ -> Alcotest.fail "counter not scraped"
  in
  check_int "shard merge sums exactly" expect (scraped ());
  check_int "scrape is repeatable" expect (scraped ());
  (* a second map accumulates on top, still exactly *)
  ignore
    (Ctam_util.Parallel.map ~domains:4
       (fun i ->
         Metrics.Counter.inc s;
         i)
       items);
  check_int "second map adds n" (expect + n) (scraped ())

let test_parallel_histogram_merge () =
  with_enabled @@ fun () ->
  let h =
    Metrics.Histogram.v ~buckets:[| 10.; 100. |]
      "test_parallel_histogram_merge"
  in
  let s = Metrics.Histogram.series h [] in
  let n = 40 in
  ignore
    (Ctam_util.Parallel.map ~domains:4
       (fun i ->
         Metrics.Histogram.observe s (float_of_int i);
         i)
       (List.init n Fun.id));
  match
    Metrics.find (Metrics.scrape Metrics.default)
      "test_parallel_histogram_merge" []
  with
  | Some (Metrics.Histogram { count; sum; buckets }) ->
      check_int "all observations counted" n count;
      check_float "sum merged" (float_of_int (n * (n - 1) / 2)) sum;
      check_int "le=10 cumulative" 11 (snd buckets.(0));
      check_int "+Inf cumulative = count" n (snd buckets.(2))
  | _ -> Alcotest.fail "histogram not scraped"

(* --- enable switch and registration ----------------------------------- *)

let test_disabled_recording () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  let c = Metrics.Counter.v ~registry:reg "test_disabled_total" in
  Metrics.Counter.inc0 c;
  Metrics.set_enabled false;
  Metrics.Counter.inc0 ~by:100 c;
  Metrics.set_enabled true;
  match Metrics.find (Metrics.scrape reg) "test_disabled_total" [] with
  | Some (Metrics.Counter n) -> check_int "disabled incs dropped" 1 n
  | _ -> Alcotest.fail "counter not scraped"

let test_registration () =
  let reg = Metrics.create () in
  let c1 = Metrics.Counter.v ~registry:reg ~help:"h" "test_reg_total" in
  let c2 = Metrics.Counter.v ~registry:reg "test_reg_total" in
  check_bool "re-registration returns the same metric" true (c1 == c2);
  check_bool "kind mismatch rejected" true
    (match Metrics.Gauge.v ~registry:reg "test_reg_total" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "label-count mismatch rejected" true
    (match Metrics.Counter.series c1 [ "x" ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "negative increment rejected" true
    (match Metrics.Counter.inc ~by:(-1) (Metrics.Counter.series c1 []) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- Prometheus exposition -------------------------------------------- *)

let test_prometheus_escaping () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  let c =
    Metrics.Counter.v ~registry:reg
      ~help:"back\\slash and\nnewline" ~labels:[ "path" ] "test_prom_total"
  in
  Metrics.Counter.inc ~by:3 (Metrics.Counter.series c [ "a\"b\\c\nd" ]);
  let out = Prometheus.render ~registry:reg () in
  let contains needle =
    Astring.String.find_sub ~sub:needle out <> None
  in
  check_bool "help escapes backslash and newline" true
    (contains "# HELP test_prom_total back\\\\slash and\\nnewline");
  check_bool "type line present" true
    (contains "# TYPE test_prom_total counter");
  check_bool "label value escapes quote, backslash, newline" true
    (contains "test_prom_total{path=\"a\\\"b\\\\c\\nd\"} 3")

let test_prometheus_histogram_lines () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  let h =
    Metrics.Histogram.v ~registry:reg ~buckets:[| 0.25; 0.5 |]
      ~labels:[ "op" ] "test_prom_h"
  in
  Metrics.Histogram.observe (Metrics.Histogram.series h [ "x" ]) 0.25;
  Metrics.Histogram.observe (Metrics.Histogram.series h [ "x" ]) 0.75;
  let out = Prometheus.render ~registry:reg () in
  let contains needle =
    Astring.String.find_sub ~sub:needle out <> None
  in
  check_bool "finite bucket" true
    (contains "test_prom_h_bucket{op=\"x\",le=\"0.25\"} 1");
  check_bool "+Inf bucket equals count" true
    (contains "test_prom_h_bucket{op=\"x\",le=\"+Inf\"} 2");
  check_bool "sum line" true (contains "test_prom_h_sum{op=\"x\"} 1");
  check_bool "count line" true (contains "test_prom_h_count{op=\"x\"} 2");
  (* one sample per (series, bound): no duplicate exposition lines *)
  let lines = String.split_on_char '\n' out in
  let sample_lines =
    List.filter
      (fun l ->
        String.length l > 0 && l.[0] <> '#'
        && Astring.String.is_prefix ~affix:"test_prom_h" l)
      lines
  in
  let sorted = List.sort_uniq compare sample_lines in
  check_int "no duplicate sample lines" (List.length sample_lines)
    (List.length sorted)

(* --- snapshot JSON ----------------------------------------------------- *)

let test_snapshot_roundtrip () =
  with_enabled @@ fun () ->
  let reg = Metrics.create () in
  let c = Metrics.Counter.v ~registry:reg ~labels:[ "k" ] "test_snap_total" in
  Metrics.Counter.inc ~by:7 (Metrics.Counter.series c [ "v" ]);
  let g = Metrics.Gauge.v ~registry:reg "test_snap_gauge" in
  Metrics.Gauge.set0 g 0.25;
  let h = Metrics.Histogram.v ~registry:reg ~buckets:[| 1.; 2. |] "test_snap_h" in
  Metrics.Histogram.observe0 h 1.5;
  let j =
    Profile.snapshot_json ~registry:reg ~version:"9.9.9" ~telemetry_version:1 ()
  in
  let s = J.to_string j in
  (match J.parse s with
  | Error e -> Alcotest.failf "snapshot does not re-parse: %s" e
  | Ok j' -> check_bool "snapshot JSON round-trips" true (j = j'));
  check_bool "schema version stamped" true
    (J.member "ctam_metrics_version" j = Some (J.Int 1));
  check_bool "tool version stamped" true
    (J.member "version" j = Some (J.String "9.9.9"));
  check_bool "gc member present" true (J.member "gc" j <> None);
  match J.member "metrics" j with
  | Some (J.List fams) ->
      check_int "three families" 3 (List.length fams);
      let names =
        List.filter_map
          (fun f ->
            match J.member "name" f with
            | Some (J.String n) -> Some n
            | _ -> None)
          fams
      in
      check_bool "families sorted by name" true
        (names = List.sort compare names)
  | _ -> Alcotest.fail "snapshot missing metrics list"

(* --- structured logger ------------------------------------------------- *)

let with_sink f =
  let captured = ref [] in
  Log.set_sink (fun line -> captured := line :: !captured);
  let old_level = Log.current_level () in
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink prerr_endline;
      Log.set_format `Human;
      Log.set_level old_level)
    (fun () -> f captured)

let test_log_levels () =
  with_sink @@ fun captured ->
  Log.set_level (Some Log.Warn);
  let formatted = ref false in
  Log.debug (fun () ->
      formatted := true;
      "dropped");
  check_bool "filtered message never formatted" false !formatted;
  check_int "filtered message not emitted" 0 (List.length !captured);
  Log.warn ~src:"t" (fun () -> "kept");
  check_int "warn emitted at warn level" 1 (List.length !captured);
  check_bool "human line carries src and message" true
    (match !captured with
    | [ line ] ->
        Astring.String.find_sub ~sub:"warn" line <> None
        && Astring.String.find_sub ~sub:"t:" line <> None
        && Astring.String.find_sub ~sub:"kept" line <> None
    | _ -> false);
  Log.set_level None;
  Log.err (fun () -> "also dropped");
  check_int "off drops errors too" 1 (List.length !captured)

let test_log_json_format () =
  with_sink @@ fun captured ->
  Log.set_level (Some Log.Info);
  Log.set_format `Json;
  Log.info ~src:"tj" ~fields:[ ("n", J.Int 3) ] (fun () -> "structured");
  match !captured with
  | [ line ] -> (
      match J.parse line with
      | Error e -> Alcotest.failf "log line is not JSON: %s" e
      | Ok j ->
          check_bool "level member" true
            (J.member "level" j = Some (J.String "info"));
          check_bool "src member" true (J.member "src" j = Some (J.String "tj"));
          check_bool "msg member" true
            (J.member "msg" j = Some (J.String "structured"));
          check_bool "structured field" true (J.member "n" j = Some (J.Int 3));
          check_bool "timestamp present" true (J.member "ts" j <> None))
  | l -> Alcotest.failf "expected 1 JSON line, got %d" (List.length l)

let test_log_level_of_string () =
  check_bool "warning alias" true
    (Log.level_of_string "Warning" = Ok (Some Log.Warn));
  check_bool "off" true (Log.level_of_string "off" = Ok None);
  check_bool "unknown rejected" true
    (Result.is_error (Log.level_of_string "chatty"))

(* --- spans ---------------------------------------------------------------- *)

let test_span () =
  (* The body's value comes back; spans keep completion order and are
     recorded when the body raises too. *)
  let r, spans =
    Span.collect (fun () ->
        let r = Span.with_ "decode" (fun () -> 21 * 2) in
        (match Span.with_ "boom" (fun () -> failwith "x") with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "span swallowed the exception");
        Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> ()));
        r)
  in
  check_int "span returns" 42 r;
  Alcotest.(check (list string))
    "completion order" [ "decode"; "boom"; "inner"; "outer" ]
    (List.map fst spans);
  check_bool "wall seconds are non-negative" true
    (List.for_all (fun (_, s) -> s >= 0.) spans);
  (* A nested collector keeps its spans; a raising one drops them. *)
  let (), outer =
    Span.collect (fun () ->
        let (), inner = Span.collect (fun () -> Span.with_ "pass" ignore) in
        Alcotest.(check (list string)) "inner" [ "pass" ] (List.map fst inner);
        (match Span.collect (fun () -> Span.with_ "lost" ignore; failwith "y") with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "collect swallowed the exception");
        Span.with_ "after" ignore)
  in
  Alcotest.(check (list string)) "outer" [ "after" ] (List.map fst outer);
  (* With no collector open a span is just its body. *)
  check_int "uncollected span" 7 (Span.with_ "nowhere" (fun () -> 7));
  (* Collectors are per domain: another domain's spans never land here. *)
  let (), here =
    Span.collect (fun () ->
        Domain.join (Domain.spawn (fun () -> Span.with_ "elsewhere" ignore)))
  in
  check_int "domain-local" 0 (List.length here);
  (* The daemon renders spans in whole microseconds. *)
  match
    Ctam_serve.Reqctx.micros_json [ ("decode", 1e-6); ("encode", 0.25) ]
  with
  | J.Obj [ ("decode", J.Int 1); ("encode", J.Int us) ] ->
      check_int "span micros" 250_000 us
  | j -> Alcotest.fail ("bad spans_us: " ^ J.to_string ~minify:true j)

(* --- engine: telemetry must not change simulated statistics ----------- *)

let test_engine_stats_unchanged () =
  let machine = Ctam_arch.Machines.harpertown ~scale:16 () in
  let prog = Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.cg in
  let was = Metrics.enabled () in
  Metrics.set_enabled false;
  let off = Ctam_core.Mapping.run Ctam_core.Mapping.Topology_aware ~machine prog in
  Metrics.set_enabled true;
  let on = Ctam_core.Mapping.run Ctam_core.Mapping.Topology_aware ~machine prog in
  Metrics.set_enabled was;
  check_bool "stats identical with telemetry on vs off" true (off = on)

let test_engine_counters () =
  with_enabled @@ fun () ->
  let machine = Ctam_arch.Machines.harpertown ~scale:16 () in
  let prog = Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.cg in
  let sample () =
    match
      Metrics.find (Metrics.scrape Metrics.default)
        "ctam_engine_accesses_total"
        [ ("engine", "heap") ]
    with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  let before = sample () in
  let stats = Ctam_core.Mapping.run Ctam_core.Mapping.Combined ~machine prog in
  check_int "engine access counter advances by the run's accesses"
    (before + stats.Ctam_cachesim.Stats.total_accesses)
    (sample ())

(* --- parallel pool monitor --------------------------------------------- *)

let test_pool_utilization () =
  with_enabled @@ fun () ->
  Runtime.install ();
  Fun.protect ~finally:Runtime.uninstall @@ fun () ->
  let busy0, cap0 = Runtime.pool_totals () in
  ignore
    (Ctam_util.Parallel.map ~domains:2
       (fun i ->
         Unix.sleepf 0.005;
         i)
       (List.init 8 Fun.id));
  let busy1, cap1 = Runtime.pool_totals () in
  check_bool "capacity advanced" true (cap1 > cap0);
  check_bool "busy advanced" true (busy1 > busy0);
  let util = (busy1 -. busy0) /. (cap1 -. cap0) in
  check_bool "utilization in (0, 1]" true (util > 0. && util <= 1.0);
  match
    Metrics.find (Metrics.scrape Metrics.default) "ctam_parallel_tasks_total"
      []
  with
  | Some (Metrics.Counter n) -> check_bool "tasks counted" true (n >= 8)
  | _ -> Alcotest.fail "parallel task counter not scraped"

(* --- tune cache corruption accounting ---------------------------------- *)

let test_tune_cache_corruption_counter () =
  with_enabled @@ fun () ->
  with_sink @@ fun captured ->
  Log.set_level (Some Log.Warn);
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ctam_tel_test_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let lookups result =
    match
      Metrics.find (Metrics.scrape Metrics.default)
        "ctam_tune_cache_lookups_total"
        [ ("result", result) ]
    with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  let key = "ctam-test-key" in
  let miss0 = lookups "miss" and corrupt0 = lookups "corrupt" in
  check_bool "absent entry is a miss" true
    (Ctam_tune.Cache.lookup ~dir key = None);
  check_int "miss counted" (miss0 + 1) (lookups "miss");
  (* Plant garbage at the entry's path: a corrupt entry, not a miss. *)
  let path =
    Filename.concat dir ("ctam-tune-" ^ Ctam_tune.Cache.hash key ^ ".json")
  in
  let oc = open_out path in
  output_string oc "this is not json";
  close_out oc;
  check_bool "corrupt entry yields None" true
    (Ctam_tune.Cache.lookup ~dir key = None);
  check_int "corrupt counted" (corrupt0 + 1) (lookups "corrupt");
  check_bool "corruption warned through the structured logger" true
    (List.exists
       (fun l -> Astring.String.find_sub ~sub:"corrupt" l <> None)
       !captured)

(* --- report diff over the telemetry member ----------------------------- *)

let mk_report ~wall ~major name =
  J.Obj
    [
      ("ctam_report_version", J.Int 1);
      ("version", J.String "t");
      ("program", J.String name);
      ("scheme", J.String "combined");
      ("machine", J.Obj [ ("name", J.String "m") ]);
      ("stats", J.Obj [ ("cycles", J.Int 1000) ]);
      ( "telemetry",
        J.Obj
          [
            ("telemetry_version", J.Int 1);
            ("wall_seconds", J.Float wall);
            ("gc", J.Obj [ ("major_words", J.Float major) ]);
          ] );
    ]

let test_report_diff_telemetry () =
  let a = [ mk_report ~wall:1.0 ~major:1000. "sp" ] in
  let b = [ mk_report ~wall:2.0 ~major:1000. "sp" ] in
  let text, regressions =
    Ctam_exp.Report_diff.render ~threshold:10. ~path_a:"a" ~path_b:"b" a b
  in
  check_bool "wall_seconds regression flagged" true (regressions >= 1);
  check_bool "wall_seconds row rendered" true
    (Astring.String.find_sub ~sub:"wall_seconds" text <> None);
  (* identical telemetry does not regress *)
  let _, none =
    Ctam_exp.Report_diff.render ~threshold:10. ~path_a:"a" ~path_b:"b" a a
  in
  check_int "identical telemetry clean" 0 none;
  (* gc metrics compare too *)
  let c = [ mk_report ~wall:1.0 ~major:2000. "sp" ] in
  let text_gc, reg_gc =
    Ctam_exp.Report_diff.render ~threshold:10. ~path_a:"a" ~path_b:"c" a c
  in
  check_bool "gc_major_words regression flagged" true (reg_gc >= 1);
  check_bool "gc_major_words row rendered" true
    (Astring.String.find_sub ~sub:"gc_major_words" text_gc <> None)

(* --- ctamap --metrics-out ------------------------------------------------ *)

(* A profiled run, a parallel compare, a memoized tune and a sampled
   streamed run each write a valid snapshot whose own families are live;
   the .prom suffix gives a valid exposition, with fig5's phase series;
   a profiled report carries the telemetry member and [report diff]
   passes it against itself; CTAM_TELEMETRY=0 still writes a valid
   snapshot, without live engine runs. *)
let test_cli_metrics_out () =
  Harness.with_temp_dir @@ fun dir ->
  let file = Filename.concat dir in
  let ctamap ?env args = ignore (Harness.out ?env Harness.ctamap args) in
  let snapshot ?require name =
    Metrics_schema.check_snapshot ?require ~what:name
      (Harness.read_json (file name))
  in
  let sp = [ "sp"; "-m"; "harpertown"; "--scale"; "64" ] in
  let sp_topology = sp @ [ "-s"; "topology" ] in
  ctamap
    (("run" :: sp_topology)
    @ [ "--profile"; "--json"; file "report.json"; "--metrics-out";
        file "m1.json" ]);
  ignore
    (snapshot "m1.json"
       ~require:
         [ "ctam_engine_runs_total"; "ctam_engine_accesses_total";
           "ctam_engine_run_seconds"; "ctam_phase_seconds";
           "ctam_phase_minor_words_total" ]);
  ctamap (("compare" :: sp) @ [ "-j"; "4"; "--metrics-out"; file "m2.json" ]);
  ignore
    (snapshot "m2.json"
       ~require:
         [ "ctam_engine_runs_total"; "ctam_parallel_maps_total";
           "ctam_parallel_tasks_total" ]);
  (* An unobserved memoized sweep: profiled runs attach probes, which
     leave the memo inert. *)
  ctamap
    [ "tune"; "cg"; "-m"; "dunnington"; "--scale"; "64"; "--budget"; "4";
      "--memo"; "--metrics-out"; file "m3.json" ];
  ignore
    (snapshot "m3.json"
       ~require:
         [ "ctam_memo_hits_total"; "ctam_memo_stores_total";
           "ctam_memo_replayed_accesses_total" ]);
  ctamap
    [ "run"; "sp"; "-m"; "harpertown"; "--scale"; "16"; "--stream";
      "--sample-sets"; "2"; "--metrics-out"; file "m4.json" ];
  ignore
    (snapshot "m4.json"
       ~require:
         [ "ctam_engine_sampled_runs_total"; "ctam_engine_sampled_accesses_total";
           "ctam_engine_skipped_accesses_total" ]);
  ctamap (("run" :: sp_topology) @ [ "--metrics-out"; file "m.prom" ]);
  let prom = Harness.read_file (file "m.prom") in
  Metrics_schema.check_prom ~what:"m.prom" prom;
  check_bool "engine counter exposed" true
    (Metrics_schema.samples ~prefix:"ctam_engine_runs_total" prom <> []);
  ctamap [ "run"; Harness.fig5; "--profile"; "--metrics-out"; file "fig5.prom" ];
  let fig5 = Harness.read_file (file "fig5.prom") in
  List.iter
    (fun series -> check_bool series true (Harness.contains ~affix:series fig5))
    [
      {|ctam_phase_seconds_count{phase="mapping.group"}|};
      {|ctam_phase_seconds_count{phase="frontend.parse"}|};
      {|ctam_phase_seconds_count{phase="simulate"}|};
      {|ctam_phase_minor_words_total{phase="simulate"}|};
    ];
  ignore (Harness.read_json (file "report.json"));
  check_bool "the report carries the telemetry member" true
    (Harness.contains ~affix:{|"telemetry_version"|}
       (Harness.read_file (file "report.json")));
  ctamap [ "report"; "diff"; file "report.json"; file "report.json" ];
  ctamap ~env:[ ("CTAM_TELEMETRY", "0") ]
    (("run" :: sp_topology) @ [ "--metrics-out"; file "m0.json" ]);
  check_bool "no live engine runs with telemetry off" false
    (List.assoc_opt "ctam_engine_runs_total" (snapshot "m0.json") = Some true)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "default buckets" `Quick test_default_buckets;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "parallel counter merge" `Quick
            test_parallel_counter_merge;
          Alcotest.test_case "parallel histogram merge" `Quick
            test_parallel_histogram_merge;
          Alcotest.test_case "empty histogram family" `Quick
            test_empty_histogram_family;
          Alcotest.test_case "scrape races first record" `Quick
            test_scrape_races_first_record;
          Alcotest.test_case "disabled recording" `Quick
            test_disabled_recording;
          Alcotest.test_case "registration" `Quick test_registration;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "escaping" `Quick test_prometheus_escaping;
          Alcotest.test_case "histogram lines" `Quick
            test_prometheus_histogram_lines;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip ] );
      ( "log",
        [
          Alcotest.test_case "levels" `Quick test_log_levels;
          Alcotest.test_case "json format" `Quick test_log_json_format;
          Alcotest.test_case "level parsing" `Quick test_log_level_of_string;
          Alcotest.test_case "ambient context" `Quick test_log_context;
        ] );
      ("span", [ Alcotest.test_case "collect and with_" `Quick test_span ]);
      ( "instrumentation",
        [
          Alcotest.test_case "engine stats unchanged" `Quick
            test_engine_stats_unchanged;
          Alcotest.test_case "engine counters" `Quick test_engine_counters;
          Alcotest.test_case "pool utilization" `Quick test_pool_utilization;
          Alcotest.test_case "tune cache corruption" `Quick
            test_tune_cache_corruption_counter;
          Alcotest.test_case "ctamap --metrics-out" `Quick
            test_cli_metrics_out;
          Alcotest.test_case "report diff telemetry" `Quick
            test_report_diff_telemetry;
        ] );
    ]
