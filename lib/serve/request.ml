(* Compute requests of the mapping service, and the one resolver of
   user input: parsing the JSON request shape into the pipeline's own
   types, deriving the plan-cache key, performing the operation and
   encoding its outcome.

   The one-shot CLI builds the same documents [ctamap client] sends,
   parses them here, in-process, and takes its results from
   [perform], so a served answer is the corresponding [ctamap]
   invocation's by construction, modulo the volatile report members
   (wall-clock timings, telemetry snapshot).

   Parsing is total — every malformed request becomes [Error _] for
   the server to answer with a structured [bad_request] reply; nothing
   in here may raise on hostile input.  Every bound is checked before
   anything sized by it is built. *)

open Ctam_arch
open Ctam_ir
open Ctam_core
module J = Ctam_util.Json
module Span = Ctam_telemetry.Span
module Space = Ctam_tune.Space
module Search = Ctam_tune.Search

type op = Map | Run | Tune | Check

let op_id = function
  | Map -> "map"
  | Run -> "run"
  | Tune -> "tune"
  | Check -> "check"

let op_of_id = function
  | "map" -> Some Map
  | "run" -> Some Run
  | "tune" -> Some Tune
  | "check" -> Some Check
  | _ -> None

type t = {
  id : J.t;  (** echoed verbatim in the reply *)
  op : op;
  program_name : string;
  program : Program.t;
  frontend_timings : (string * float) list;
      (** parse and lower seconds of a DSL source; none for a builtin *)
  machine : Topology.t;
  knobs : Space.point;
      (** the point as given (validated): [compare] applies it to every
          scheme *)
  point : Space.point;  (** [knobs] canonicalized *)
  base_params : Mapping.params;
  stream : bool;
  sample_sets : int;
  check : bool;  (** run: attach the legality report; tune: verify winner *)
  strategy : Search.strategy;  (** tune only *)
  budget : int option;  (** tune only *)
  nocache : bool;  (** bypass the plan cache (lookup and store) *)
  timeout_ms : int option;
  trace : bool;  (** run: embed Chrome-trace JSON in the response *)
  trace_window : int option;  (** timeline window width for [trace] *)
}

(* The timeline window of a traced run or [ctamap trace] when none is
   given, in simulated cycles. *)
let default_window = 8192

(* --- parsing ---------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
let total f = match f () with r -> Ok r | exception Bad msg -> Error msg
let mem name = function J.Obj _ as j -> J.member name j | _ -> None

let str_field j name =
  match mem name j with
  | None -> None
  | Some (J.String s) -> Some s
  | Some _ -> bad "member %S must be a string" name

let int_field j name =
  match mem name j with
  | None -> None
  | Some (J.Int i) -> Some i
  | Some _ -> bad "member %S must be an integer" name

let pos_field j name =
  match int_field j name with
  | Some v when v < 1 -> bad "%S must be >= 1 (got %d)" name v
  | v -> v

let num_field j name =
  match mem name j with
  | None -> None
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | Some _ -> bad "member %S must be a number" name

let bool_field j name =
  match mem name j with
  | None -> None
  | Some (J.Bool b) -> Some b
  | Some _ -> bad "member %S must be a boolean" name

let flag j name = Option.value ~default:false (bool_field j name)

(* A DSL source is timed pass by pass, the one place frontend timings
   are measured; a builtin reports none. *)
let program_members j =
  match (str_field j "program", str_field j "source") with
  | Some _, Some _ -> bad "give either \"program\" or \"source\", not both"
  | None, None -> bad "missing \"program\" (builtin name) or \"source\" (DSL)"
  | Some name, None -> (
      let module Kernel = Ctam_workloads.Kernel in
      let size = pos_field j "size" in
      match Ctam_workloads.Suite.by_name name with
      | k -> (
          (* A size whose extents overflow is refused by the builder
             before any storage exists. *)
          match Kernel.program ?size k with
          | p -> (k.Kernel.name, p, [])
          | exception Invalid_argument msg ->
              bad "bad \"size\" for %s: %s" k.Kernel.name msg)
      | exception Not_found ->
          bad "unknown builtin program %S (workloads: %s)" name
            (String.concat ", "
               (List.map (fun k -> k.Kernel.name) Ctam_workloads.Suite.all)))
  | None, Some src -> (
      let module F = Ctam_frontend in
      match
        Span.collect (fun () ->
            let ast = Span.with_ "parse" (fun () -> F.Parser.parse src) in
            Span.with_ "lower" (fun () -> F.Lower.lower_program ast))
      with
      | p, timings -> (p.Program.name, p, timings)
      | exception F.Parse_error.Error (pos, msg) ->
          bad "%s" (F.Parse_error.render ~source:src pos msg)
      | exception e -> bad "source does not compile: %s" (Printexc.to_string e))

(* [scale] divides presets and topology texts alike; without it a
   machine keeps its stated capacities. *)
let scaled_machine j =
  let scale = pos_field j "scale" in
  match (str_field j "machine", str_field j "topology") with
  | Some _, Some _ -> bad "give either \"machine\" or \"topology\", not both"
  | None, None -> bad "missing \"machine\" (preset name) or \"topology\" (text)"
  | Some name, None -> (
      match Machines.by_name ?scale name with
      | m -> m
      | exception Not_found -> bad "unknown machine %S" name)
  | None, Some text -> (
      match Topo_parse.parse text with
      | m -> (
          match scale with
          | None | Some 1 -> m
          | Some scale -> Machines.scale_caches ~scale m)
      | exception Topo_parse.Error msg -> bad "bad topology: %s" msg)

(* The policy spec is folded into the machine itself, so the plan-cache
   key (whose topology fragments carry non-default policies) can never
   serve a plan across policy changes. *)
let parse_policy j machine =
  match str_field j "policy" with
  | None -> machine
  | Some spec -> (
      match Topology.apply_policy_spec spec machine with
      | Ok m -> m
      | Error e -> bad "bad \"policy\": %s" e)

let parse_sample_sets j machine =
  let n = Option.value ~default:1 (int_field j "sample_sets") in
  match Ctam_cachesim.Hierarchy.check_sample_sets machine n with
  | Ok () -> n
  | Error e -> bad "bad \"sample_sets\": %s" e

let machine_members j = parse_policy j (scaled_machine j)

(* The point comes either whole (["params"], the [--params] file
   schema) or knob by knob, explicit knobs winning; the whole point is
   validated together with the base parameters. *)
let parse_knobs j ~base_params =
  let scheme =
    match str_field j "scheme" with
    | None -> None
    | Some id -> (
        match Mapping.scheme_of_id id with
        | Ok s -> Some s
        | Error e -> bad "%s" e)
  in
  let base =
    match mem "params" j with
    | None -> Space.default_point ?scheme ()
    | Some pj -> (
        match Space.of_json pj with
        | Ok p -> (
            match scheme with
            | None -> p
            | Some s -> { p with Space.scheme = s })
        | Error e -> bad "bad \"params\": %s" e)
  in
  let p =
    {
      base with
      Space.alpha =
        Option.value ~default:base.Space.alpha (num_field j "alpha");
      beta = Option.value ~default:base.Space.beta (num_field j "beta");
      balance =
        Option.value ~default:base.Space.balance (num_field j "balance");
      tile_edge =
        (match int_field j "tile_edge" with
        | Some e -> Some e
        | None -> base.Space.tile_edge);
    }
  in
  match Mapping.validate_params (Space.params_of ~base:base_params p) with
  | Ok () -> p
  | Error e -> bad "bad parameters: %s" e

let parse_base_params j =
  match int_field j "block" with
  | None -> Mapping.default_params
  | Some b ->
      { Mapping.default_params with Mapping.block_size = b; auto_block = false }

let parse j =
  total @@ fun () ->
  let op =
    match str_field j "op" with
    | None -> bad "missing \"op\""
    | Some id -> (
        match op_of_id id with
        | Some op -> op
        | None -> bad "unknown op %S" id)
  in
  let base_params = parse_base_params j in
  let knobs = parse_knobs j ~base_params in
  let budget =
    match int_field j "budget" with
    | Some b when b < 0 -> bad "\"budget\" must be >= 0 (got %d)" b
    | b -> b
  in
  let strategy =
    match str_field j "strategy" with
    | None -> Search.default_settings.Search.strategy
    | Some id -> (
        match Search.strategy_of_id id with
        | Ok s -> s
        | Error e -> bad "%s" e)
  in
  let timeout_ms = pos_field j "timeout_ms" in
  let trace = flag j "trace" in
  let trace_window = pos_field j "trace_window" in
  if trace && op <> Run then bad "\"trace\" applies only to op \"run\"";
  if trace_window <> None && not trace then
    bad "\"trace_window\" requires \"trace\": true";
  let machine = machine_members j in
  let sample_sets = parse_sample_sets j machine in
  let program_name, program, frontend_timings = program_members j in
  {
    id = Option.value ~default:J.Null (mem "id" j);
    op;
    program_name;
    program;
    frontend_timings;
    machine;
    knobs;
    point = Space.canonical knobs;
    base_params;
    stream = flag j "stream";
    sample_sets;
    check = flag j "check";
    strategy;
    budget;
    nocache = flag j "nocache";
    timeout_ms;
    trace;
    trace_window;
  }

(* The program members alone, for commands that take no machine. *)
let parse_program j =
  total @@ fun () ->
  let _, program, _ = program_members j in
  program

(* The machine members alone: a preset or topology, its scale and its
   policy. *)
let parse_machine j = total @@ fun () -> machine_members j

(* The mapping parameters [r] compiles with: its base parameters and
   canonical point. *)
let params r = Space.params_of ~base:r.base_params r.point

(* The tune search [r] asks for; the caller adds its execution
   settings (cache directory, domains, memo). *)
let search_settings r =
  {
    Search.default_settings with
    Search.strategy = r.strategy;
    budget = r.budget;
    base_params = r.base_params;
    verify = r.check;
    stream = r.stream;
    sample_sets = r.sample_sets;
  }

(* --- plan-cache key --------------------------------------------------- *)

(* Same content-hash discipline as the tune cache
   (Ctam_tune.Cache.key), over the request shape instead of a space
   point alone: operation, execution mode, the canonical point, and
   the shared environment fragments (tool version, base params,
   per-core topology paths, canonical program source). *)
let key r =
  String.concat "\n"
    ([ "ctam-plan-key v1"; "op=" ^ op_id r.op ]
    @ (if r.stream then [ "stream=1" ] else [])
    @ (if r.sample_sets > 1 then
         [ Printf.sprintf "sample=%d" r.sample_sets ]
       else [])
    @ (if r.check then [ "check=1" ] else [])
    @ (if r.trace then [ "trace=1" ] else [])
    @ (match r.trace_window with
      | Some w when r.trace -> [ Printf.sprintf "trace_window=%d" w ]
      | _ -> [])
    @ (match r.op with
      | Tune ->
          [
            "strategy=" ^ Search.strategy_id r.strategy;
            ("budget="
            ^ match r.budget with None -> "none" | Some b -> string_of_int b);
          ]
      | Map | Run | Check -> [])
    @ [ Space.key_fragment r.point ]
    @ Ctam_tune.Cache.context_fragments ~version:Ctam_exp.Build_info.version
        ~base_params:r.base_params ~machine:r.machine r.program)

(* --- the trace op (simtrace over the wire) ----------------------------- *)

module Ingest = Ctam_tracein.Ingest
module TraceReader = Ctam_tracein.Reader

type trace_req = {
  t_id : J.t;
  t_machine : Topology.t;
  t_opts : Ingest.options;
  t_text : string;
  t_scan : Ingest.scan;
  t_sample_sets : int;
  t_nocache : bool;
  t_timeout_ms : int option;
}

(* The replay members both trace paths share — machine, dealing
   options, sampling factor — checked before anything is sized by
   them: [cores] sizes the counting pass's per-core state. *)
let replay_members j =
  let machine = machine_members j in
  let n = machine.Topology.num_cores in
  let cores = Option.value ~default:1 (int_field j "cores") in
  if cores < 1 || cores > n then
    bad "\"cores\" must be in 1..%d on %s (got %d)" n machine.Topology.name
      cores;
  let interleave =
    match str_field j "interleave" with
    | None | Some "round-robin" | Some "rr" -> Ingest.Round_robin
    | Some "tagged" -> Ingest.Tagged
    | Some s -> bad "unknown interleave %S (round-robin or tagged)" s
  in
  let opts =
    {
      Ingest.cores;
      interleave;
      instr = flag j "instr";
      lossy = flag j "lossy";
      fold_bits = pos_field j "fold_bits";
      rebase = flag j "rebase";
      split = pos_field j "split";
    }
  in
  (match Ingest.validate opts with
  | () -> ()
  | exception Ingest.Error msg -> bad "bad trace options: %s" msg);
  (machine, opts, parse_sample_sets j machine)

(* [simtrace] streams its trace file, so it parses the replay members
   alone. *)
let parse_replay j = total @@ fun () -> replay_members j

let parse_trace j =
  total @@ fun () ->
  let text =
    match str_field j "trace_text" with
    | Some s -> s
    | None -> bad "missing \"trace_text\" (inline trace contents)"
  in
  let machine, opts, sample_sets = replay_members j in
  let timeout_ms = pos_field j "timeout_ms" in
  (* Strict-mode trace errors (with their line positions) surface here
     as [bad_request], not as [internal] failures mid-execution. *)
  let scan =
    try Ingest.scan opts (TraceReader.Text text)
    with Ingest.Error msg -> bad "bad trace: %s" msg
  in
  {
    t_id = Option.value ~default:J.Null (mem "id" j);
    t_machine = machine;
    t_opts = opts;
    t_text = text;
    t_scan = scan;
    t_sample_sets = sample_sets;
    t_nocache = flag j "nocache";
    t_timeout_ms = timeout_ms;
  }

(* Same content-hash discipline as [key]: every behavioral input —
   including the trace text itself and the (policy-aware) topology
   fragments — is part of the key. *)
let trace_key tr =
  let o = tr.t_opts in
  String.concat "\n"
    [
      "ctam-trace-key v1";
      "version=" ^ Ctam_exp.Build_info.version;
      Printf.sprintf "cores=%d interleave=%s instr=%b lossy=%b fold=%s \
                      rebase=%b split=%s sample=%d"
        o.Ingest.cores
        (Ingest.interleave_to_string o.Ingest.interleave)
        o.Ingest.instr o.Ingest.lossy
        (match o.Ingest.fold_bits with
        | None -> "none"
        | Some b -> string_of_int b)
        o.Ingest.rebase
        (match o.Ingest.split with
        | None -> "none"
        | Some s -> string_of_int s)
        tr.t_sample_sets;
      Ctam_tune.Cache.topology_fragment tr.t_machine;
      tr.t_text;
    ]

let execute_trace tr =
  Span.collect (fun () ->
      Span.with_ "simulate" (fun () ->
          let stats, sc =
            Ingest.run ~sample_sets:tr.t_sample_sets ~scan:tr.t_scan
              ~machine:tr.t_machine tr.t_opts (TraceReader.Text tr.t_text)
          in
          Ingest.report_json ~machine:tr.t_machine tr.t_opts sc stats))

(* --- execution -------------------------------------------------------- *)

module Run_report = Ctam_exp.Run_report
module Verify = Ctam_verify.Verify

(* What an op computes, before anything renders it: the compiled plan
   of a [map], the observed run of a [run], the verifier's report of a
   [check] and the search result of a [tune].  The daemon encodes it
   as its reply; each [ctamap] command renders it as text or files. *)
type outcome =
  | Plan of Mapping.compiled
  | Profile of Run_report.profile
  | Verdict of Verify.report
  | Searched of Search.result

(* [perform ?cache_dir ?jobs ?memo r] runs the operation and returns
   its outcome together with the spans the request context publishes
   (compile / simulate / verify / search, in completion order).  The
   optional arguments are execution settings of a tune search:
   [cache_dir] is its persistent evaluation cache (distinct file
   prefix, same directory), [jobs] its domains and [memo] its shared
   phase memo.  May raise — the server maps exceptions to structured
   [internal] errors. *)
let perform ?cache_dir ?jobs ?(memo = false) r =
  let params = params r in
  let scheme = r.point.Space.scheme in
  let compile () =
    Span.with_ "compile" (fun () ->
        Mapping.compile ~params ~stream:r.stream scheme ~machine:r.machine
          r.program)
  in
  match r.op with
  | Map -> Span.collect (fun () -> Plan (compile ()))
  | Run ->
      let timeline_window =
        if r.trace then
          Some (Option.value ~default:default_window r.trace_window)
        else None
      in
      let p =
        Run_report.profile ~params ?timeline_window
          ~frontend_timings:r.frontend_timings ~check:r.check ~stream:r.stream
          ~sample_sets:r.sample_sets scheme ~machine:r.machine r.program
      in
      (Profile p, p.Run_report.spans)
  | Check ->
      Span.collect (fun () ->
          let compiled = compile () in
          Verdict (Span.with_ "verify" (fun () -> Verify.check compiled)))
  | Tune ->
      let settings =
        { (search_settings r) with Search.cache_dir; jobs; memo }
      in
      Span.collect (fun () ->
          Searched
            (Span.with_ "search" (fun () ->
                 Search.run settings ~machine:r.machine
                   ~program_name:r.program_name r.program)))

(* The Chrome trace of a traced run (a profile whose sink keeps a
   timeline): the simulated machine, and the frontend and compile
   passes on the compiler track.  The daemon's reply and [ctamap
   trace] both take it from here. *)
let chrome_trace r (p : Run_report.profile) =
  match Ctam_cachesim.Sink.window p.Run_report.sink with
  | None -> None
  | Some _ ->
      Some
        (Ctam_exp.Trace_export.trace_json
           ~compile_timings:
             (r.frontend_timings @ p.Run_report.compiled.Mapping.timings)
           ~program:r.program_name ~machine:r.machine.Topology.name
           ~scheme:(Mapping.scheme_id r.point.Space.scheme)
           ~legend:p.Run_report.legend p.Run_report.sink)

(* The map op answers with the mapping's structure only (groups,
   rounds, dependence edges per nest) — no wall-clock members, so the
   response is fully deterministic and caches byte-exactly. *)
let map_summary r (compiled : Mapping.compiled) =
  J.Obj
    [
      ("ctam_map_version", J.Int 1);
      ("version", J.String Ctam_exp.Build_info.version);
      ("program", J.String r.program_name);
      ("scheme", J.String (Mapping.scheme_id r.point.Space.scheme));
      ("machine", J.String r.machine.Topology.name);
      ("cores", J.Int r.machine.Topology.num_cores);
      ("params", Space.to_json r.point);
      ("nests", J.List (List.map Run_report.nest_json compiled.Mapping.infos));
    ]

(* The daemon's encoding of an outcome.  A traced run's report carries
   its Chrome trace as a [trace] member, so a client can stream one
   slow request straight into chrome://tracing. *)
let encode r = function
  | Plan compiled -> map_summary r compiled
  | Profile p -> (
      match (chrome_trace r p, p.Run_report.report) with
      | Some trace, J.Obj ms -> J.Obj (ms @ [ ("trace", trace) ])
      | _, report -> report)
  | Verdict v -> Verify.to_json v
  | Searched result -> Search.to_json result

(* [execute ?cache_dir r] is the daemon's path: [perform] with one
   evaluation at a time (the daemon's parallelism budget belongs to
   the worker pool, not to a single request), then [encode]. *)
let execute ?cache_dir r =
  let outcome, spans = perform ?cache_dir ~jobs:1 r in
  (encode r outcome, spans)
