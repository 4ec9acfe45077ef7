(* The general compiled-plan cache fronting the mapping service:
   Tune.Cache's content-hash discipline generalized from tune outcomes
   to any JSON-valued result (compiled-plan summaries, run reports,
   verification reports, whole tune reports), with an in-memory LRU
   tier over the shared atomic on-disk tier (Ctam_util.Diskstore).

   The memory tier holds each entry as its minified text, the bytes a
   reply carries, so a hit is served without encoding anything
   (Protocol.ok_pieces splices the envelope around them).  It is
   bounded both in entries and in bytes (the length of that text);
   inserting past either bound evicts from the cold end.  A disk hit is
   encoded once and promoted into memory, so a restarted daemon
   re-warms its working set on first touch.

   All operations take the cache mutex: the server's worker domains
   share one instance.  The on-disk tier needs no lock — Diskstore
   writes are atomic (temp + rename) and concurrent readers see either
   the old or the new entry, never a torn one. *)

module J = Ctam_util.Json
module Store = Ctam_util.Diskstore
module Tel = Ctam_telemetry

let file_prefix = "ctam-plan-"

let tel_lookups =
  Tel.Metrics.Counter.v
    ~labels:[ "tier"; "result" ]
    ~help:"Plan cache lookups by tier and outcome"
    "ctam_serve_cache_lookups_total"

let tel_evictions =
  Tel.Metrics.Counter.v ~labels:[ "reason" ]
    ~help:"Plan cache LRU evictions by bound" "ctam_serve_cache_evictions_total"

let tel_stores =
  Tel.Metrics.Counter.v ~help:"Plan cache entries written to disk"
    "ctam_serve_cache_stores_total"

let tel_store_failures =
  Tel.Metrics.Counter.v ~help:"Plan cache disk writes that failed"
    "ctam_serve_cache_store_failures_total"

let tel_entries =
  Tel.Metrics.Gauge.v ~help:"Plan cache resident entries"
    "ctam_serve_cache_entries"

let tel_bytes =
  Tel.Metrics.Gauge.v ~help:"Plan cache resident bytes"
    "ctam_serve_cache_bytes"

let count tier result =
  Tel.Metrics.Counter.inc (Tel.Metrics.Counter.series tel_lookups [ tier; result ])

(* Doubly-linked LRU node; [node.key] doubles as the hashtable key. *)
type node = {
  key : string;
  text : string;  (** the value, minified *)
  mutable prev : node option;  (** towards hot end *)
  mutable next : node option;  (** towards cold end *)
}

type counters = {
  mutable mem_hits : int;
  mutable mem_misses : int;
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable disk_corrupt : int;
  mutable evicted_entries : int;
  mutable evicted_bytes : int;
  mutable stores : int;
  mutable store_failures : int;
}

type t = {
  dir : string option;
  max_entries : int;
  max_bytes : int;
  table : (string, node) Hashtbl.t;
  mutable hot : node option;
  mutable cold : node option;
  mutable entries : int;
  mutable bytes : int;
  c : counters;
  lock : Mutex.t;
}

let default_max_entries = 512
let default_max_bytes = 64 * 1024 * 1024

let create ?dir ?(max_entries = default_max_entries)
    ?(max_bytes = default_max_bytes) () =
  if max_entries < 1 then invalid_arg "Plan_cache.create: max_entries";
  if max_bytes < 1 then invalid_arg "Plan_cache.create: max_bytes";
  {
    dir;
    max_entries;
    max_bytes;
    table = Hashtbl.create 64;
    hot = None;
    cold = None;
    entries = 0;
    bytes = 0;
    c =
      {
        mem_hits = 0;
        mem_misses = 0;
        disk_hits = 0;
        disk_misses = 0;
        disk_corrupt = 0;
        evicted_entries = 0;
        evicted_bytes = 0;
        stores = 0;
        store_failures = 0;
      };
    lock = Mutex.create ();
  }

let dir t = t.dir

(* --- intrusive list plumbing (caller holds the lock) ------------------ *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.hot <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.cold <- n.prev);
  n.prev <- None;
  n.next <- None

let push_hot t n =
  n.prev <- None;
  n.next <- t.hot;
  (match t.hot with Some h -> h.prev <- Some n | None -> t.cold <- Some n);
  t.hot <- Some n

let set_gauges t =
  Tel.Metrics.Gauge.set0 tel_entries (float_of_int t.entries);
  Tel.Metrics.Gauge.set0 tel_bytes (float_of_int t.bytes)

let evict_one t reason =
  match t.cold with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.entries <- t.entries - 1;
      t.bytes <- t.bytes - String.length n.text;
      t.c.evicted_entries <- t.c.evicted_entries + 1;
      t.c.evicted_bytes <- t.c.evicted_bytes + String.length n.text;
      Tel.Metrics.Counter.inc
        (Tel.Metrics.Counter.series tel_evictions [ reason ])

(* Insert (or refresh) [key] with the minified [text] of its value in
   the memory tier and trim to bounds. *)
let insert_locked t key text =
  (match Hashtbl.find_opt t.table key with
  | Some old ->
      unlink t old;
      Hashtbl.remove t.table key;
      t.entries <- t.entries - 1;
      t.bytes <- t.bytes - String.length old.text
  | None -> ());
  let n = { key; text; prev = None; next = None } in
  push_hot t n;
  Hashtbl.replace t.table key n;
  t.entries <- t.entries + 1;
  t.bytes <- t.bytes + String.length text;
  while t.entries > t.max_entries do
    evict_one t "entries"
  done;
  (* Never evict the entry just inserted, even if it alone exceeds the
     byte bound — a cache that cannot hold its largest value would
     re-miss it forever. *)
  while t.bytes > t.max_bytes && t.entries > 1 do
    evict_one t "bytes"
  done;
  set_gauges t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Which tier answered — the journal's and the span metrics' "cache
   outcome" dimension — with the entry's minified text. *)
type lookup_result = Memory of string | Disk of string | Absent

let lookup t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
          unlink t n;
          push_hot t n;
          t.c.mem_hits <- t.c.mem_hits + 1;
          count "memory" "hit";
          Memory n.text
      | None -> (
          t.c.mem_misses <- t.c.mem_misses + 1;
          count "memory" "miss";
          match t.dir with
          | None -> Absent
          | Some dir -> (
              match
                Store.read ~dir ~prefix:file_prefix ~value_member:"value" key
              with
              | Store.Hit v ->
                  t.c.disk_hits <- t.c.disk_hits + 1;
                  count "disk" "hit";
                  let text = J.to_string ~minify:true v in
                  insert_locked t key text;
                  Disk text
              | Store.Miss ->
                  t.c.disk_misses <- t.c.disk_misses + 1;
                  count "disk" "miss";
                  Absent
              | Store.Corrupt what ->
                  t.c.disk_corrupt <- t.c.disk_corrupt + 1;
                  count "disk" "corrupt";
                  Tel.Log.warn ~src:"serve.cache"
                    ~fields:
                      [
                        ( "path",
                          J.String
                            (Store.entry_path ~dir ~prefix:file_prefix key) );
                      ]
                    (fun () ->
                      "corrupt plan-cache entry (" ^ what
                      ^ "); will recompute");
                  Absent
              | Store.Collision ->
                  count "disk" "collision";
                  Absent)))

let find t key =
  match lookup t key with Memory v | Disk v -> Some v | Absent -> None

(* [store t key value] caches [value] under [key] in both tiers and
   returns its minified text, which the memory tier now holds: a
   computed reply is spliced around these bytes, so it is encoded once. *)
let store t key value =
  let text = J.to_string ~minify:true value in
  locked t (fun () ->
      insert_locked t key text;
      (match t.dir with
      | None -> ()
      | Some dir -> (
          match
            Store.write ~dir ~prefix:file_prefix ~value_member:"value" key value
          with
          | Ok _ ->
              t.c.stores <- t.c.stores + 1;
              Tel.Metrics.Counter.inc0 tel_stores
          | Error what ->
              t.c.store_failures <- t.c.store_failures + 1;
              Tel.Metrics.Counter.inc0 tel_store_failures;
              Tel.Log.warn ~src:"serve.cache"
                ~fields:[ ("dir", J.String dir) ]
                (fun () -> "plan-cache store failed (" ^ what ^ ")"))));
  text

let add t key value = ignore (store t key value)

let stats_json t =
  locked t (fun () ->
      J.Obj
        [
          ("entries", J.Int t.entries);
          ("bytes", J.Int t.bytes);
          ("max_entries", J.Int t.max_entries);
          ("max_bytes", J.Int t.max_bytes);
          ("memory_hits", J.Int t.c.mem_hits);
          ("memory_misses", J.Int t.c.mem_misses);
          ("disk_hits", J.Int t.c.disk_hits);
          ("disk_misses", J.Int t.c.disk_misses);
          ("disk_corrupt", J.Int t.c.disk_corrupt);
          ("evicted_entries", J.Int t.c.evicted_entries);
          ("evicted_bytes", J.Int t.c.evicted_bytes);
          ("stores", J.Int t.c.stores);
          ("store_failures", J.Int t.c.store_failures);
          ("persistent", J.Bool (t.dir <> None));
        ])

(* Exposed for the LRU unit tests: hot-to-cold key order. *)
let keys_hot_to_cold t =
  locked t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some n -> go (n.key :: acc) n.next
      in
      go [] t.hot)

let resident_bytes t = locked t (fun () -> t.bytes)
let resident_entries t = locked t (fun () -> t.entries)
