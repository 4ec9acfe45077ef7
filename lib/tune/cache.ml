open Ctam_arch
open Ctam_core
module J = Ctam_util.Json
module Store = Ctam_util.Diskstore
module Tel = Ctam_telemetry

(* Lookups labelled by outcome: "hit", "miss" (no entry on disk),
   "corrupt" (entry exists but fails to parse — also logged, since a
   corrupt entry costs a re-evaluation every run until removed), and
   "collision" (parses but stores a different key: FNV-1a hash
   collision or a stale file from an incompatible key schema). *)
let tel_lookups =
  Tel.Metrics.Counter.v ~labels:[ "result" ]
    ~help:"Tune cache lookups by outcome" "ctam_tune_cache_lookups_total"

let tel_stores =
  Tel.Metrics.Counter.v ~help:"Tune cache entries written"
    "ctam_tune_cache_stores_total"

let tel_store_failures =
  Tel.Metrics.Counter.v
    ~help:"Tune cache entry writes that failed (disk full, permissions)"
    "ctam_tune_cache_store_failures_total"

let tel_bytes_written =
  Tel.Metrics.Counter.v ~help:"Bytes written to the tune cache"
    "ctam_tune_cache_bytes_written_total"

let count_lookup result =
  Tel.Metrics.Counter.inc (Tel.Metrics.Counter.series tel_lookups [ result ])

let warn_corrupt path what =
  Tel.Log.warn ~src:"tune.cache"
    ~fields:[ ("path", J.String path) ]
    (fun () -> "corrupt cache entry (" ^ what ^ "); will re-evaluate")

(* The key is a canonical multi-line string; the file name is its
   FNV-1a 64 hash (see Ctam_util.Diskstore, the shared on-disk tier).
   Floats are rendered with %h (exact hex) so two processes can never
   disagree on a key by formatting. *)

(* The policy suffix appears only when a cache deviates from the LRU
   default, so every pre-policy key — and thus every warm cache — stays
   byte-identical (the same idiom as the sampling fragment). *)
let cache_fragment (c : Topology.cache_params) =
  Printf.sprintf "%s:L%d:%db:%dw:%dl:%dc%s" c.Topology.cache_name
    c.Topology.level c.Topology.size_bytes c.Topology.assoc c.Topology.line
    c.Topology.latency
    (if Policy.equal c.Topology.policy Policy.Lru then ""
     else ":" ^ Policy.to_string c.Topology.policy)

(* Topology.caches loses the sharing structure (two machines with the
   same cache list can group cores differently), so hash each core's
   path to its last-level cache instead. *)
let topology_fragment (m : Topology.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "machine=%s clock=%h mem=%d cores=%d" m.Topology.name
       m.Topology.clock_ghz m.Topology.mem_latency m.Topology.num_cores);
  Array.iteri
    (fun c path ->
      Buffer.add_string b (Printf.sprintf "\ncore%d=" c);
      List.iter
        (fun cp ->
          Buffer.add_char b '/';
          Buffer.add_string b (cache_fragment cp))
        path)
    (Topology.paths m);
  Buffer.contents b

let base_params_fragment (p : Mapping.params) =
  Printf.sprintf "block=%d auto=%b groups=%d dep=%s"
    p.Mapping.block_size p.Mapping.auto_block p.Mapping.max_groups
    (match p.Mapping.dependence_mode with
    | Distribute.Synchronize -> "sync"
    | Distribute.Cluster -> "cluster")

let program_fragment program =
  match Ctam_frontend.Unparse.program program with
  | src -> src
  | exception _ -> Digest.to_hex (Digest.string (Marshal.to_string program []))

(* Everything an outcome's environment consists of, minus the thing
   evaluated (the space point here; the request shape for the serving
   plan cache, which reuses these fragments for its own keys). *)
let context_fragments ~version ~base_params ~machine program =
  [
    "version=" ^ version;
    base_params_fragment base_params;
    topology_fragment machine;
    "program:";
    program_fragment program;
  ]

let key ~version ~base_params ~machine ~max_cycles ?(sample_sets = 1) program
    point =
  String.concat "\n"
    ([
       "ctam-tune-key v1";
       "version=" ^ version;
       base_params_fragment base_params;
       topology_fragment machine;
       ("cap=" ^ match max_cycles with None -> "none" | Some c -> string_of_int c);
     ]
    (* Sampled outcomes are approximations; keep them apart from exact
       ones.  The fragment appears only when sampling so every exact
       key — the only kind produced before sampling existed — is
       unchanged and a warm cache stays valid. *)
    @ (if sample_sets > 1 then
         [ Printf.sprintf "sample=%d" sample_sets ]
       else [])
    @ [
        Space.key_fragment point;
        "program:";
        program_fragment program;
      ])

let hash = Store.hash

let file_prefix = "ctam-tune-"

let entry_path ~dir key = Store.entry_path ~dir ~prefix:file_prefix key

let lookup ~dir key =
  let path = entry_path ~dir key in
  match Store.read ~dir ~prefix:file_prefix ~value_member:"outcome" key with
  | Store.Miss ->
      count_lookup "miss";
      None
  | Store.Corrupt what ->
      count_lookup "corrupt";
      warn_corrupt path what;
      None
  | Store.Collision ->
      (* Same hash, different key: treat as a miss but count it
         separately — repeated collisions mean the key schema changed
         without a version bump. *)
      count_lookup "collision";
      None
  | Store.Hit oj -> (
      match Eval.outcome_of_json oj with
      | Ok o ->
          count_lookup "hit";
          Some o
      | Error e ->
          count_lookup "corrupt";
          warn_corrupt path ("bad outcome: " ^ e);
          None)

let store ~dir key outcome =
  match
    Store.write ~dir ~prefix:file_prefix ~value_member:"outcome" key
      (Eval.outcome_to_json outcome)
  with
  | Ok bytes ->
      Tel.Metrics.Counter.inc0 tel_stores;
      Tel.Metrics.Counter.inc0 ~by:bytes tel_bytes_written
  | Error what ->
      Tel.Metrics.Counter.inc0 tel_store_failures;
      Tel.Log.warn ~src:"tune.cache"
        ~fields:[ ("dir", J.String dir) ]
        (fun () -> "cache store failed (" ^ what ^ "); result not persisted")
