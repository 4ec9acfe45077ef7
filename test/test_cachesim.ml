(* Tests for the cache simulator: set-associative LRU caches, the
   hierarchy, and the parallel execution engine. *)

open Ctam_arch
open Ctam_cachesim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Setassoc ------------------------------------------------------- *)

let test_setassoc_basics () =
  let c = Setassoc.create ~sets:4 ~assoc:2 () in
  check_int "capacity" 8 (Setassoc.capacity_lines c);
  check_bool "cold miss" false (Setassoc.access c 0);
  ignore (Setassoc.insert c 0);
  check_bool "hit after fill" true (Setassoc.access c 0);
  check_int "hits" 1 (Setassoc.hits c);
  check_int "misses" 1 (Setassoc.misses c)

let test_setassoc_lru () =
  let c = Setassoc.create ~sets:1 ~assoc:2 () in
  ignore (Setassoc.insert c 10);
  ignore (Setassoc.insert c 20);
  (* Touch 10 so 20 becomes LRU; inserting 30 must evict 20. *)
  check_bool "10 hit" true (Setassoc.access c 10);
  Alcotest.(check (option int)) "evicts LRU" (Some 20) (Setassoc.insert c 30);
  check_bool "20 gone" false (Setassoc.contains c 20);
  check_bool "10 stays" true (Setassoc.contains c 10);
  check_bool "30 in" true (Setassoc.contains c 30)

let test_setassoc_sets_disjoint () =
  let c = Setassoc.create ~sets:2 ~assoc:1 () in
  ignore (Setassoc.insert c 0);  (* set 0 *)
  ignore (Setassoc.insert c 1);  (* set 1 *)
  check_bool "both resident" true
    (Setassoc.contains c 0 && Setassoc.contains c 1);
  (* line 2 maps to set 0: evicts 0 but not 1. *)
  Alcotest.(check (option int)) "evict same set" (Some 0) (Setassoc.insert c 2);
  check_bool "1 survives" true (Setassoc.contains c 1)

let test_setassoc_invalidate () =
  let c = Setassoc.create ~sets:1 ~assoc:4 () in
  ignore (Setassoc.insert c 1);
  ignore (Setassoc.insert c 2);
  check_bool "invalidate hit" true (Setassoc.invalidate c 1);
  check_bool "gone" false (Setassoc.contains c 1);
  check_bool "2 stays" true (Setassoc.contains c 2);
  check_bool "invalidate miss" false (Setassoc.invalidate c 9);
  (* Freed way is reusable without eviction. *)
  ignore (Setassoc.insert c 3);
  ignore (Setassoc.insert c 4);
  Alcotest.(check (option int)) "no eviction" None (Setassoc.insert c 5)

let test_setassoc_clear () =
  let c = Setassoc.create ~sets:2 ~assoc:2 () in
  ignore (Setassoc.insert c 7);
  ignore (Setassoc.access c 7);
  Setassoc.clear c;
  check_int "hits reset" 0 (Setassoc.hits c);
  check_bool "empty" false (Setassoc.contains c 7);
  check_int "resident" 0 (List.length (Setassoc.resident c))

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"resident lines never exceed capacity" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 63))
    (fun lines ->
      let c = Setassoc.create ~sets:4 ~assoc:2 () in
      List.iter
        (fun l -> if not (Setassoc.access c l) then ignore (Setassoc.insert c l))
        lines;
      List.length (Setassoc.resident c) <= Setassoc.capacity_lines c)

let prop_access_after_insert_hits =
  QCheck.Test.make ~name:"immediate re-access hits" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 255))
    (fun lines ->
      let c = Setassoc.create ~sets:8 ~assoc:4 () in
      List.for_all
        (fun l ->
          if not (Setassoc.access c l) then ignore (Setassoc.insert c l);
          Setassoc.access c l)
        lines)

(* Probe event log, for comparing full event sequences. *)
type event =
  | Access of int * int * int * bool
  | Level of int * int * int * int * bool
  | Mem of int * int
  | Evict of int * int * int
  | Invalidate of int * int * int
  | Retire of int * int
  | Phase_start of int
  | Phase_end of int * int
  | Barrier_enter of int * int
  | Barrier_exit of int * int

let recording_probe log =
  let push e = log := e :: !log in
  {
    Probe.on_access = (fun ~core ~addr ~line ~write -> push (Access (core, addr, line, write)));
    on_level =
      (fun ~core ~level ~set ~line ~hit -> push (Level (core, level, set, line, hit)));
    on_mem = (fun ~core ~line -> push (Mem (core, line)));
    on_evict = (fun ~core ~level ~line -> push (Evict (core, level, line)));
    on_invalidate =
      (fun ~core ~level ~line -> push (Invalidate (core, level, line)));
    on_retire = (fun ~core ~cycles -> push (Retire (core, cycles)));
    on_phase_start = (fun ~phase -> push (Phase_start phase));
    on_phase_end = (fun ~phase ~cycles -> push (Phase_end (phase, cycles)));
    on_barrier_enter =
      (fun ~phase ~cycles -> push (Barrier_enter (phase, cycles)));
    on_barrier_exit =
      (fun ~phase ~cycles -> push (Barrier_exit (phase, cycles)));
  }

(* --- Hierarchy ------------------------------------------------------ *)

let tiny_machine () =
  (* 2 cores, private L1 (2 sets x 2), shared L2 (8 sets x 2). *)
  let l1 id =
    Topology.Cache
      ( {
          Topology.cache_name = Printf.sprintf "L1#%d" id;
          level = 1;
          size_bytes = 2 * 2 * 64;
          assoc = 2;
          line = 64;
          latency = 2;
          policy = Policy.Lru;
        },
        [ Topology.Core id ] )
  in
  Topology.make ~name:"tiny" ~clock_ghz:1. ~mem_latency:100
    [
      Topology.Cache
        ( {
            Topology.cache_name = "L2#0";
            level = 2;
            size_bytes = 8 * 2 * 64;
            assoc = 2;
            line = 64;
            latency = 10;
            policy = Policy.Lru;
          },
          [ l1 0; l1 1 ] );
    ]

let test_hierarchy_latencies () =
  let h = Hierarchy.create (tiny_machine ()) in
  (* Cold: L1 probe (2) + L2 probe (10) + memory (100). *)
  check_int "cold miss" 112 (Hierarchy.access h ~core:0 ~addr:0 ~write:false);
  (* Now resident in both caches: L1 hit. *)
  check_int "L1 hit" 2 (Hierarchy.access h ~core:0 ~addr:0 ~write:false);
  (* Other core: misses its L1, hits shared L2. *)
  check_int "L2 hit via sharing" 12
    (Hierarchy.access h ~core:1 ~addr:0 ~write:false);
  check_int "hit_latency L2" 12
    (Option.get (Hierarchy.hit_latency h ~core:0 ~level:2));
  check_int "miss latency" 112 (Hierarchy.miss_latency h ~core:0)

let test_hierarchy_inclusive_fill () =
  let h = Hierarchy.create (tiny_machine ()) in
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:false);
  (* After the fill the line is in both the L1 and the L2: evicting it
     from L1 (capacity) still leaves an L2 hit. *)
  ignore (Hierarchy.access h ~core:0 ~addr:(64 * 2) ~write:false);
  ignore (Hierarchy.access h ~core:0 ~addr:(64 * 4) ~write:false);
  (* set 0 of L1 now held 0,2,4 -> 0 was evicted. *)
  check_int "L2 hit after L1 eviction" 12
    (Hierarchy.access h ~core:0 ~addr:0 ~write:false)

let test_hierarchy_coherence () =
  let h = Hierarchy.create ~coherence:true (tiny_machine ()) in
  ignore (Hierarchy.access h ~core:1 ~addr:0 ~write:false);
  check_int "core1 hit" 2 (Hierarchy.access h ~core:1 ~addr:0 ~write:false);
  (* A write by core 0 invalidates core 1's L1 copy. *)
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:true);
  check_int "core1 refetches from L2" 12
    (Hierarchy.access h ~core:1 ~addr:0 ~write:false)

let test_hierarchy_restore_forgets_writers () =
  (* A write can skip its invalidation sweep only while the hierarchy
     knows no other core holds the line; a restored image can put the
     line anywhere, so the next write must sweep again. *)
  let log = ref [] in
  let h = Hierarchy.create ~probe:(recording_probe log) (tiny_machine ()) in
  ignore (Hierarchy.access h ~core:1 ~addr:0 ~write:false);
  let image = Hierarchy.snapshot h in
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:true);
  Hierarchy.restore h image;
  log := [];
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:true);
  check_bool "the write invalidates core 1's L1" true
    (List.mem (Invalidate (0, 1, 0)) !log);
  check_int "core 1 misses its L1" 12
    (Hierarchy.access h ~core:1 ~addr:0 ~write:false)

let test_hierarchy_restore_lists_image () =
  (* A memo image can hold a line in a cache no core of the new run has
     filled: the restore must put that cache on the filled list, or a
     write would skip the copy. *)
  let log = ref [] in
  let h = Hierarchy.create ~probe:(recording_probe log) (tiny_machine ()) in
  ignore (Hierarchy.access h ~core:1 ~addr:0 ~write:false);
  let image = Hierarchy.snapshot h in
  Hierarchy.clear h;
  Hierarchy.restore h image;
  (* L2, then core 1's L1. *)
  Alcotest.(check (list int)) "the image's caches" [ 0; 2 ]
    (Hierarchy.filled_instances h);
  log := [];
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:true);
  check_bool "the write invalidates core 1's L1" true
    (List.mem (Invalidate (0, 1, 0)) !log);
  check_int "core 1 misses its L1" 12
    (Hierarchy.access h ~core:1 ~addr:0 ~write:false)

(* Instance indices ([Topology.caches] order) of the caches on some
   cores' paths, ascending. *)
let path_instances topo cores =
  let names =
    List.mapi (fun i (p : Topology.cache_params) -> (p.cache_name, i))
      (Topology.caches topo)
  in
  List.sort_uniq compare
    (List.concat_map
       (fun c ->
         List.map
           (fun (p : Topology.cache_params) -> List.assoc p.cache_name names)
           (Topology.path_of_core topo c))
       cores)

let test_hierarchy_clear_empties_filled () =
  (* A run on cores 0-1 of Dunnington, then one on cores 6-7 (the
     other socket): after [clear] the list holds only what the second
     run filled, ascending, and a later write still finds every copy. *)
  let topo = Machines.dunnington ~scale:64 () in
  let log = ref [] in
  let h = Hierarchy.create ~probe:(recording_probe log) topo in
  let run cores =
    List.iter
      (fun c ->
        for l = 0 to 3 do
          ignore (Hierarchy.access h ~core:c ~addr:(l * 64) ~write:false)
        done)
      cores
  in
  run [ 0; 1 ];
  Alcotest.(check (list int)) "first run" (path_instances topo [ 0; 1 ])
    (Hierarchy.filled_instances h);
  Hierarchy.clear h;
  Alcotest.(check (list int)) "cleared" [] (Hierarchy.filled_instances h);
  run [ 7; 6 ];
  Alcotest.(check (list int)) "second run" (path_instances topo [ 6; 7 ])
    (Hierarchy.filled_instances h);
  run [ 0 ];
  Alcotest.(check (list int)) "then core 0 again"
    (path_instances topo [ 0; 6; 7 ])
    (Hierarchy.filled_instances h);
  log := [];
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:true);
  (* Core 0's write reaches the other socket's L3, its L2 and both L1s
     there, in ascending instance order. *)
  let invalidated =
    List.rev
      (List.filter_map
         (function Invalidate (_, level, _) -> Some level | _ -> None)
         !log)
  in
  Alcotest.(check (list int)) "other socket's copies" [ 3; 2; 1; 1 ]
    invalidated

let test_hierarchy_create_linear () =
  (* 4,096 private L1s under one L2: [create] allocates in proportion
     to the cache lines and instances, not to cores x instances. *)
  let n = 4096 in
  let cache name level size_bytes assoc children =
    Topology.Cache
      ( {
          Topology.cache_name = name;
          level;
          size_bytes;
          assoc;
          line = 64;
          latency = level * 4;
          policy = Policy.Lru;
        },
        children )
  in
  let topo =
    Topology.make ~name:"wide" ~clock_ghz:1. ~mem_latency:100
      [
        cache "L2" 2 (n * 8192) 8
          (List.init n (fun c ->
               cache (Printf.sprintf "L1#%d" c) 1 4096 4 [ Topology.Core c ]));
      ]
  in
  let lines =
    List.fold_left
      (fun acc (p : Topology.cache_params) -> acc + (p.size_bytes / p.line))
      0 (Topology.caches topo)
  in
  (* [Gc.counters]'s minor count lags the minor heap; [Gc.minor_words]
     does not. *)
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = allocated () in
  let h = Hierarchy.create topo in
  let words = allocated () -. before in
  check_int "instances" (n + 1) (Hierarchy.num_instances h);
  let bound = 4 * (lines + n + 1) in
  if words > float_of_int bound then
    Alcotest.failf "create allocated %.0f words, over the bound %d" words bound

let test_hierarchy_stats () =
  let h = Hierarchy.create (tiny_machine ()) in
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:false);
  ignore (Hierarchy.access h ~core:0 ~addr:0 ~write:false);
  let stats = Hierarchy.level_stats h in
  let l1 = List.find (fun s -> s.Stats.level = 1) stats in
  check_int "l1 hits" 1 l1.Stats.hits;
  check_int "l1 misses" 1 l1.Stats.misses;
  check_int "mem accesses" 1 (Hierarchy.mem_accesses h);
  Hierarchy.clear h;
  check_int "cleared" 0 (Hierarchy.mem_accesses h)

(* --- Engine --------------------------------------------------------- *)

let test_engine_serial () =
  let h = Hierarchy.create (tiny_machine ()) in
  let stream =
    Array.of_list
      (List.map
         (fun (a, w) -> Engine.encode_access ~addr:a ~write:w)
         [ (0, false); (0, true); (64, false) ])
  in
  let stats = Engine.run_serial h stream in
  check_int "accesses" 3 stats.Stats.total_accesses;
  (* cold(112) + hit(2) + cold(112), plus 1 issue cycle each. *)
  check_int "cycles" (112 + 2 + 112 + 3) stats.Stats.cycles;
  check_int "no barriers" 0 stats.Stats.barriers

let test_engine_parallel_max () =
  let h = Hierarchy.create (tiny_machine ()) in
  (* Core 0 does 4 accesses to distinct lines, core 1 does 1. *)
  let enc a = Engine.encode_access ~addr:a ~write:false in
  let phase =
    [| Array.init 4 (fun i -> enc (i * 64 * 16)); [| enc (64 * 3) |] |]
  in
  let stats = Engine.run h [ phase ] in
  (* Completion is the slowest core, roughly 4 cold misses. *)
  check_bool "max over cores" true
    (stats.Stats.cycles >= 4 * 112 && stats.Stats.cycles < 5 * 113);
  check_int "busy cores" 2
    (Array.length (Array.of_list (List.filter (fun c -> c > 0) (Array.to_list stats.Stats.core_cycles))))

let test_engine_barrier () =
  let h = Hierarchy.create (tiny_machine ()) in
  let enc a = Engine.encode_access ~addr:a ~write:false in
  let p1 = [| [| enc 0 |]; [||] |] in
  let p2 = [| [||]; [| enc (64 * 17) |] |] in
  let stats = Engine.run h [ p1; p2 ] in
  check_int "one barrier" 1 stats.Stats.barriers;
  (* Phase 2 starts only after phase 1's max plus the barrier cost. *)
  check_bool "barrier serializes" true
    (stats.Stats.cycles >= (112 + 1) + Engine.barrier_cost + 112)

let test_engine_sharing_constructive () =
  (* Two cores reading the same lines: the second reader should hit in
     the shared L2 after the first brings lines in. *)
  let h = Hierarchy.create (tiny_machine ()) in
  let enc a = Engine.encode_access ~addr:a ~write:false in
  let same = Array.init 8 (fun i -> enc (i * 64)) in
  let stats = Engine.run h [ [| same; same |] |> Array.map Array.copy ] in
  check_bool "L2 sees hits" true
    (let l2 = List.find (fun s -> s.Stats.level = 2) stats.Stats.per_level in
     l2.Stats.hits > 0);
  check_int "mem only once per line" 8 stats.Stats.mem_accesses

let test_engine_core_count_mismatch () =
  let h = Hierarchy.create (tiny_machine ()) in
  Alcotest.check_raises "phase mismatch"
    (Invalid_argument "Engine.run: phase core-count mismatch") (fun () ->
      ignore (Engine.run h [ [| [||] |] ]))

let test_encode_roundtrip () =
  List.iter
    (fun (a, w) ->
      let a', w' = Engine.decode_access (Engine.encode_access ~addr:a ~write:w) in
      check_int "addr" a a';
      check_bool "write" w w')
    [ (0, false); (12345, true); (1 lsl 40, false) ]

(* --- Differential tests of the optimized hot path ------------------- *)

(* A naive, self-contained model of the seed cache semantics:
   per-set MRU-first lists, plain div/mod indexing, no flattened
   arrays, no shift/mask fast paths and no write filter.  It takes any
   topology: paths come from [Topology.path_of_core], and a write
   invalidates every cache off the writer's path, in
   [Topology.caches] order.  The optimized Setassoc/Hierarchy must
   agree with it access for access and event for event, including on
   non-power-of-two line sizes and set counts, where the fast paths
   must fall back. *)
module Naive = struct
  type cache = {
    sets : int;
    assoc : int;
    latency : int;
    level : int;
    data : int list array;  (* per set, MRU first *)
    mutable hits : int;
    mutable misses : int;
  }

  let set_of c line = line mod c.sets

  let access c line =
    let s = set_of c line in
    if List.mem line c.data.(s) then begin
      c.hits <- c.hits + 1;
      c.data.(s) <- line :: List.filter (fun l -> l <> line) c.data.(s);
      true
    end
    else begin
      c.misses <- c.misses + 1;
      false
    end

  (* Insert an absent line; the LRU victim, or -1. *)
  let insert c line =
    let s = set_of c line in
    let d = line :: c.data.(s) in
    if List.length d > c.assoc then begin
      c.data.(s) <- List.filteri (fun i _ -> i < c.assoc) d;
      List.nth d c.assoc
    end
    else begin
      c.data.(s) <- d;
      -1
    end

  let invalidate c line =
    let s = set_of c line in
    if List.mem line c.data.(s) then begin
      c.data.(s) <- List.filter (fun l -> l <> line) c.data.(s);
      true
    end
    else false

  type machine = {
    line : int;
    mem_latency : int;
    caches : cache array;  (* [Topology.caches] order *)
    paths : int list array;  (* per core, indices into [caches], L1 first *)
    mutable mem_accesses : int;
    log : event list ref;  (* newest first *)
  }

  let machine topo =
    let params = Array.of_list (Topology.caches topo) in
    let index name =
      let rec go i =
        if params.(i).Topology.cache_name = name then i else go (i + 1)
      in
      go 0
    in
    {
      line = params.(0).Topology.line;
      mem_latency = topo.Topology.mem_latency;
      caches =
        Array.map
          (fun (p : Topology.cache_params) ->
            let sets = p.size_bytes / (p.assoc * p.line) in
            {
              sets;
              assoc = p.assoc;
              latency = p.latency;
              level = p.level;
              data = Array.make sets [];
              hits = 0;
              misses = 0;
            })
          params;
      paths =
        Array.init topo.Topology.num_cores (fun c ->
            List.map
              (fun (p : Topology.cache_params) -> index p.cache_name)
              (Topology.path_of_core topo c));
      mem_accesses = 0;
      log = ref [];
    }

  let maccess m ~core ~addr ~write =
    let line = addr / m.line in
    let emit e = m.log := e :: !(m.log) in
    let latency = ref 0 in
    (* Probe upward; the caches that missed, L1 first. *)
    let rec probe missed = function
      | [] ->
          m.mem_accesses <- m.mem_accesses + 1;
          latency := !latency + m.mem_latency;
          emit (Mem (core, line));
          List.rev missed
      | i :: rest ->
          let c = m.caches.(i) in
          latency := !latency + c.latency;
          let hit = access c line in
          emit (Level (core, c.level, set_of c line, line, hit));
          if hit then List.rev missed else probe (i :: missed) rest
    in
    List.iter
      (fun i ->
        let c = m.caches.(i) in
        let victim = insert c line in
        if victim >= 0 then emit (Evict (core, c.level, victim)))
      (probe [] m.paths.(core));
    if write then
      Array.iteri
        (fun i c ->
          if (not (List.mem i m.paths.(core))) && invalidate c line then
            emit (Invalidate (core, c.level, line)))
        m.caches;
    !latency

  let level_stats m =
    let levels =
      List.sort_uniq compare
        (Array.to_list (Array.map (fun c -> c.level) m.caches))
    in
    List.map
      (fun level ->
        Array.fold_left
          (fun (s : Stats.level_stats) c ->
            if c.level = level then
              { s with hits = s.hits + c.hits; misses = s.misses + c.misses }
            else s)
          { Stats.level; hits = 0; misses = 0 }
          m.caches)
      levels
end

let param_machine ~line ~l1_sets ~l2_sets ~assoc =
  let l1 id =
    Topology.Cache
      ( {
          Topology.cache_name = Printf.sprintf "L1#%d" id;
          level = 1;
          size_bytes = l1_sets * assoc * line;
          assoc;
          line;
          latency = 2;
          policy = Policy.Lru;
        },
        [ Topology.Core id ] )
  in
  Topology.make ~name:"param" ~clock_ghz:1. ~mem_latency:100
    [
      Topology.Cache
        ( {
            Topology.cache_name = "L2#0";
            level = 2;
            size_bytes = l2_sets * assoc * line;
            assoc;
            line;
            latency = 10;
            policy = Policy.Lru;
          },
          [ l1 0; l1 1 ] );
    ]

(* (line, l1_sets, l2_sets, assoc): power-of-two and non-power-of-two
   line sizes and set counts, so both the shift/mask fast paths and the
   div/mod fallbacks are exercised. *)
let diff_configs =
  [ (64, 2, 8, 2); (48, 2, 8, 2); (64, 3, 5, 2); (48, 3, 7, 3); (32, 1, 6, 4) ]

let oracle_machines =
  List.map
    (fun (line, l1_sets, l2_sets, assoc) ->
      param_machine ~line ~l1_sets ~l2_sets ~assoc)
    diff_configs
  @ [ Machines.dunnington ~scale:64 (); Machines.arch_ii ~scale:64 () ]

(* A machine takes each access's core modulo its core count, and the
   address [line * line size + offset mod line size]. *)
type oracle_access = { core : int; line : int; offset : int; write : bool }

let oracle_stream_gen =
  let open QCheck.Gen in
  let acc core line offset write = { core; line; offset; write } in
  (* A pool of at most 8 lines, with runs of writes by one core between
     other cores' reads: the sharing the write filter has to track. *)
  let pool =
    int_range 1 8 >>= fun n ->
    array_repeat n (int_range 0 4095) >>= fun pool ->
    list_size (int_range 1 40)
      (triple (int_range 0 63) bool
         (list_size (int_range 1 6) (int_range 0 (n - 1))))
    >|= List.concat_map (fun (core, write, picks) ->
            List.map (fun k -> acc core pool.(k) 0 write) picks)
  in
  (* Uniformly random accesses, not line-aligned. *)
  let uniform =
    list_size (int_range 1 300)
      (map4 acc (int_range 0 63) (int_range 0 255) (int_range 0 63) bool)
  in
  (* A few of the cores issue, sharing a pool of lines: on the wide
     machines most caches are never filled, and a write sweeps a
     partial filled list. *)
  let subset =
    int_range 1 3 >>= fun k ->
    array_repeat k (int_range 0 63) >>= fun cores ->
    int_range 1 8 >>= fun n ->
    array_repeat n (int_range 0 4095) >>= fun pool ->
    list_size (int_range 1 200)
      (map3
         (fun c l write -> acc cores.(c) pool.(l) 0 write)
         (int_range 0 (k - 1))
         (int_range 0 (n - 1))
         bool)
  in
  (* Over 4,096 distinct lines out of 4,608, so that lines share
     filter slots and some sharing lasts between the writes to one. *)
  let wide =
    list_repeat 12000
      (map4 acc (int_range 0 63) (int_range 0 4607) (return 0) bool)
  in
  frequency [ (3, pool); (3, uniform); (3, subset); (1, wide) ]

let prop_hierarchy_matches_naive_model =
  QCheck.Test.make ~name:"Hierarchy.access matches naive seed model" ~count:60
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "<%d accesses>" (List.length s))
       oracle_stream_gen)
    (fun stream ->
      List.for_all
        (fun topo ->
          let log = ref [] in
          let h = Hierarchy.create ~probe:(recording_probe log) topo in
          let m = Naive.machine topo in
          let cores = topo.Topology.num_cores in
          List.for_all
            (fun a ->
              let core = a.core mod cores in
              let addr = (a.line * m.Naive.line) + (a.offset mod m.Naive.line) in
              Hierarchy.access h ~core ~addr ~write:a.write
              = Naive.maccess m ~core ~addr ~write:a.write)
            stream
          && Hierarchy.level_stats h = Naive.level_stats m
          && Hierarchy.mem_accesses h = m.Naive.mem_accesses
          && !log = !(m.Naive.log))
        oracle_machines)

(* Random phases for the 2-core parametric machines: each phase gives
   each core an independent stream (possibly empty — idle cores are the
   interesting heap edge case). *)
let phases_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 4)
      (pair
         (list_of_size (Gen.int_range 0 60) (pair (int_range 0 4095) bool))
         (list_of_size (Gen.int_range 0 60) (pair (int_range 0 4095) bool))))

let phases_of_spec spec =
  List.map
    (fun (s0, s1) ->
      let enc s =
        Array.of_list
          (List.map (fun (a, w) -> Engine.encode_access ~addr:a ~write:w) s)
      in
      [| enc s0; enc s1 |])
    spec

let run_logged runner ~machine phases =
  let log = ref [] in
  let h = Hierarchy.create ~probe:(recording_probe log) machine in
  let stats = runner h phases in
  (stats, List.rev !log)

let prop_heap_engine_matches_scan =
  QCheck.Test.make
    ~name:"heap Engine.run == scan Engine.run_reference (stats + events)"
    ~count:60 phases_gen
    (fun spec ->
      let phases = phases_of_spec spec in
      List.for_all
        (fun (line, l1_sets, l2_sets, assoc) ->
          let machine = param_machine ~line ~l1_sets ~l2_sets ~assoc in
          let s_heap, e_heap = run_logged Engine.run ~machine phases in
          let s_scan, e_scan = run_logged Engine.run_reference ~machine phases in
          s_heap = s_scan && e_heap = e_scan)
        diff_configs)

let test_engine_heap_vs_scan_multicore () =
  (* Same differential on a real 16-core machine with a deeper
     hierarchy, deterministic streams. *)
  let machine = Ctam_arch.Machines.dunnington ~scale:64 () in
  let n = machine.Topology.num_cores in
  let mk_phase seed len =
    Array.init n (fun c ->
        if (c + seed) mod 3 = 2 then [||]
        else
          Array.init len (fun i ->
              Engine.encode_access
                ~addr:(((c * 977) + (i * 64) + (seed * 131)) mod 65536)
                ~write:((i + c) mod 5 = 0)))
  in
  let phases = [ mk_phase 0 40; mk_phase 1 25; mk_phase 2 33 ] in
  let s_heap, e_heap = run_logged Engine.run ~machine phases in
  let s_scan, e_scan = run_logged Engine.run_reference ~machine phases in
  check_bool "stats identical" true (s_heap = s_scan);
  check_int "event count" (List.length e_scan) (List.length e_heap);
  check_bool "event sequences identical" true (e_heap = e_scan)

let test_setassoc_non_pow2_sets () =
  (* sets = 3: the mask fast path must not engage; mapping is mod 3. *)
  let c = Setassoc.create ~sets:3 ~assoc:2 () in
  check_int "set of 7" 1 (Setassoc.set_of_line c 7);
  check_int "set of 9" 0 (Setassoc.set_of_line c 9);
  ignore (Setassoc.insert c 0);
  ignore (Setassoc.insert c 3);
  (* set 0 full; 6 evicts the LRU (0). *)
  Alcotest.(check (option int)) "evicts in mod-3 set" (Some 0)
    (Setassoc.insert c 6);
  check_bool "3 survives" true (Setassoc.contains c 3);
  (* 1 lives in set 1, untouched. *)
  ignore (Setassoc.insert c 1);
  check_bool "set 1 disjoint" true (Setassoc.contains c 1)

(* --- Reuse ------------------------------------------------------------ *)

let test_reuse_simple () =
  (* Stream: a b a b -> distances: cold, cold, 1, 1. *)
  let h = Reuse.of_lines [| 1; 2; 1; 2 |] in
  check_int "cold" 2 h.Reuse.cold;
  check_int "total" 4 h.Reuse.total;
  (* distance 1 lands in bucket 1 ([1,2)). *)
  check_int "bucket1" 2 h.Reuse.buckets.(1);
  (* Consecutive re-access: distance 0. *)
  let h0 = Reuse.of_lines [| 7; 7; 7 |] in
  check_int "bucket0" 2 h0.Reuse.buckets.(0)

let test_reuse_distance_counts_distinct () =
  (* a x x b a: distance of the second a is 2 distinct lines (x, b). *)
  let h = Reuse.of_lines [| 1; 2; 2; 3; 1 |] in
  (* distance 2 -> bucket 2 ([2,4)). *)
  check_int "distinct lines" 1 h.Reuse.buckets.(2)

let test_reuse_hit_ratio () =
  (* Cyclic sweep over 8 lines, 4 times: every non-cold access has
     distance 7. *)
  let stream = Array.init 32 (fun i -> i mod 8) in
  let h = Reuse.of_lines stream in
  check_int "cold" 8 h.Reuse.cold;
  check_bool "hits with 8 lines" true (Reuse.hit_ratio_at h ~lines:8 >= 0.99);
  check_bool "misses with 4 lines" true (Reuse.hit_ratio_at h ~lines:4 <= 0.01);
  check_bool "mean distance in bucket [4,8)" true
    (let m = Reuse.mean_distance h in m >= 4. && m < 8.)

let test_reuse_merge () =
  let h1 = Reuse.of_lines [| 1; 1 |] and h2 = Reuse.of_lines [| 2; 2 |] in
  let m = Reuse.merge [ h1; h2 ] in
  check_int "total" 4 m.Reuse.total;
  check_int "cold" 2 m.Reuse.cold

let prop_reuse_agrees_with_fullassoc_lru =
  (* The reuse histogram's hit count below capacity C must equal the
     hits of a fully-associative LRU cache of capacity C (for C a
     bucket boundary power of two). *)
  QCheck.Test.make ~name:"reuse histogram matches full-assoc LRU" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 15))
    (fun lines_list ->
      let lines = Array.of_list lines_list in
      let h = Reuse.of_lines lines in
      let capacity = 8 in
      let cache = Setassoc.create ~sets:1 ~assoc:capacity () in
      Array.iter
        (fun l -> if not (Setassoc.access cache l) then ignore (Setassoc.insert cache l))
        lines;
      let expected_hits = Setassoc.hits cache in
      (* Buckets 0..3 cover distances 0..7 (< 8). *)
      let hist_hits =
        h.Reuse.buckets.(0) + h.Reuse.buckets.(1) + h.Reuse.buckets.(2)
        + h.Reuse.buckets.(3)
      in
      expected_hits = hist_hits)

(* --- Streams / sampling / memo --------------------------------------- *)

(* A cursor over [a] handing out [chunk] accesses at a time (the last
   chunk shorter) through one buffer that each refill overwrites, as
   the library's cursors do. *)
let gen_of_array ?(chunk = 7) a =
  let pos = ref 0 in
  let buf = Array.make chunk 0 in
  {
    Engine.length = Array.length a;
    reset = (fun () -> pos := 0);
    refill =
      (fun () ->
        let n = min chunk (Array.length a - !pos) in
        Array.blit a !pos buf 0 n;
        pos := !pos + n;
        (buf, n));
  }

let gen_phases ?(chunk = fun _ _ -> 7) phases =
  List.mapi
    (fun pi p ->
      Array.mapi (fun c a -> Engine.Gen (gen_of_array ~chunk:(chunk pi c) a)) p)
    phases

(* Chunk sizes for the test cursors: one access per chunk, a few, or
   more than any generated stream holds. *)
let chunk_gen = QCheck.Gen.(oneof [ return 1; int_range 2 9; return 64 ])

let prop_gen_cursor_matches_dense =
  (* A generator-backed stream must be indistinguishable from the
     dense array it encodes: same statistics AND the same probe event
     sequence, on both the heap engine and the reference scan, however
     the cursor chunks it. *)
  QCheck.Test.make ~name:"Gen cursors == Dense arrays (stats + events)"
    ~count:40
    (QCheck.pair phases_gen
       (QCheck.make ~print:QCheck.Print.(list int)
          QCheck.Gen.(list_repeat 8 chunk_gen)))
    (fun (spec, chunks) ->
      let phases = phases_of_spec spec in
      let dense = List.map Engine.of_phase phases in
      let gens =
        gen_phases ~chunk:(fun pi c -> List.nth chunks ((2 * pi) + c)) phases
      in
      List.for_all
        (fun (line, l1_sets, l2_sets, assoc) ->
          let machine = param_machine ~line ~l1_sets ~l2_sets ~assoc in
          let run ph =
            run_logged (fun h p -> Engine.run_streams h p) ~machine ph
          in
          let scan ph =
            run_logged (fun h p -> Engine.run_reference_streams h p) ~machine ph
          in
          let s_d, e_d = run dense in
          let s_g, e_g = run gens in
          let s_r, e_r = scan gens in
          s_d = s_g && e_d = e_g && s_d = s_r && e_d = e_r)
        diff_configs)

(* Streams of 0-30 accesses per part, 0-5 parts per core: each part
   dense, or a cursor with a drawn chunk size (empty parts included). *)
let concat_gen =
  let open QCheck.Gen in
  let part =
    triple bool chunk_gen
      (list_size (int_range 0 30) (pair (int_range 0 4095) bool))
  in
  pair (list_size (int_range 0 5) part) (list_size (int_range 0 5) part)

let prop_stream_concat_matches_dense =
  (* A concatenation of dense, generated and empty parts is the
     concatenated array: materialized, and run exactly, probed and set
     sampled (batched and per access), over two phases so the chained
     cursor is reset and re-run. *)
  QCheck.Test.make ~name:"stream_concat == Array.concat (stats + events)"
    ~count:60
    (QCheck.make concat_gen)
    (fun (parts0, parts1) ->
      let arrays parts =
        List.map
          (fun (_, _, accs) ->
            Array.of_list
              (List.map
                 (fun (a, w) -> Engine.encode_access ~addr:a ~write:w)
                 accs))
          parts
      in
      let concat parts =
        Engine.stream_concat
          (List.map2
             (fun (is_gen, chunk, _) a ->
               if is_gen then Engine.Gen (gen_of_array ~chunk a)
               else Engine.dense a)
             parts (arrays parts))
      in
      let flat parts = Array.concat (arrays parts) in
      let chained = [| concat parts0; concat parts1 |] in
      let dense = [| flat parts0; flat parts1 |] in
      Engine.force_stream chained.(0) = dense.(0)
      && Engine.force_stream chained.(1) = dense.(1)
      && List.for_all
           (fun (line, sample_sets) ->
             let machine = param_machine ~line ~l1_sets:2 ~l2_sets:8 ~assoc:2 in
             let plain p =
               Engine.run_streams (Hierarchy.create ~sample_sets machine) p
             in
             let probed p =
               let log = ref [] in
               let h =
                 Hierarchy.create ~probe:(recording_probe log) ~sample_sets
                   machine
               in
               let s = Engine.run_streams h p in
               (s, List.rev !log)
             in
             let ph_c = [ chained; chained ] in
             let ph_d = [ Engine.of_phase dense; Engine.of_phase dense ] in
             plain ph_c = plain ph_d && probed ph_c = probed ph_d)
           [ (64, 1); (64, 2); (48, 2) ])

let det_stream seed len =
  Array.init len (fun i ->
      Engine.encode_access
        ~addr:(((seed * 977) + (i * 28)) mod 8192)
        ~write:((i + seed) mod 5 = 0))

let test_engine_capped_cursor () =
  (* An early [max_cycles] cutoff must stop drawing from the
     generator: the engine refills only before it issues an access, so
     a one-access-per-chunk cursor hands out exactly the executed
     prefix — and the capped statistics are identical to the dense
     path's.  Also at [sample_sets] 2, where the cap selects the
     per-access sampled step (the tuner's successive halving passes
     both). *)
  let machine = param_machine ~line:64 ~l1_sets:4 ~l2_sets:16 ~assoc:2 in
  let phase = [| det_stream 0 400; det_stream 1 400 |] in
  let dense = [ Engine.of_phase phase ] in
  List.iter
    (fun sample_sets ->
      let name what = Printf.sprintf "sample_sets %d: %s" sample_sets what in
      let pulls = ref 0 in
      let counting a =
        let g = gen_of_array ~chunk:1 a in
        Engine.Gen
          {
            g with
            Engine.refill =
              (fun () ->
                let ((_, n) as chunk) = g.Engine.refill () in
                pulls := !pulls + n;
                chunk);
          }
      in
      let gens = [ Array.map counting phase ] in
      let create () = Hierarchy.create ~sample_sets machine in
      let full = Engine.run_streams (create ()) dense in
      let cap = full.Stats.cycles / 3 in
      let s_dense = Engine.run_streams ~max_cycles:cap (create ()) dense in
      let s_gen = Engine.run_streams ~max_cycles:cap (create ()) gens in
      check_bool (name "capped stats identical") true (s_dense = s_gen);
      check_bool (name "cut early") true (s_dense.Stats.total_accesses < 800);
      check_bool (name "cycles reach cap") true (s_dense.Stats.cycles >= cap);
      check_int
        (name "pulls == issued accesses")
        s_gen.Stats.total_accesses !pulls)
    [ 1; 2 ]

let test_engine_cursor_length_mismatch () =
  (* Every mode takes exactly [length] accesses from a cursor: one that
     ends early raises (it must not spin or read a bogus access), and
     one that would hand out more is cut at its length. *)
  let machine = param_machine ~line:64 ~l1_sets:4 ~l2_sets:16 ~assoc:2 in
  let a = det_stream 0 300 and b = det_stream 1 200 in
  let claiming length = Engine.Gen { (gen_of_array a) with Engine.length } in
  List.iter
    (fun (mode, sample_sets, probed) ->
      let run phase =
        let probe = if probed then recording_probe (ref []) else Probe.null in
        Ctam_util.Deadline.within ~ms:5000 (fun () ->
            Engine.run_streams
              (Hierarchy.create ~probe ~sample_sets machine)
              [ phase ])
      in
      check_bool (mode ^ ": short cursor raises") true
        (match run [| claiming 350; Engine.dense b |] with
        | exception Invalid_argument _ -> true
        | _ -> false);
      let long = run [| claiming 250; Engine.dense b |] in
      check_bool (mode ^ ": long cursor cut at its length") true
        (long = run [| Engine.dense (Array.sub a 0 250); Engine.dense b |]);
      check_int (mode ^ ": accesses") 450 long.Stats.total_accesses)
    [ ("exact", 1, false); ("probed sampled", 2, true); ("batched", 2, false) ]

let test_engine_sampling_batched_matches_per_access () =
  (* Skip batching only engages on unobserved runs; attaching a probe
     forces the per-access sampled path.  Both must produce identical
     statistics (the batch charges one bulk estimate equal to the sum
     of the per-access estimates, and sampled accesses are issued at
     the same clocks), on dense and generator streams alike. *)
  let machine = param_machine ~line:64 ~l1_sets:4 ~l2_sets:16 ~assoc:2 in
  let phases =
    [
      [| det_stream 0 300; det_stream 1 251 |];
      [| det_stream 2 123; det_stream 3 77 |];
    ]
  in
  let dense = List.map Engine.of_phase phases in
  let run ~probed sample_sets ph =
    let log = ref [] in
    let h =
      if probed then
        Hierarchy.create ~probe:(recording_probe log) ~sample_sets machine
      else Hierarchy.create ~sample_sets machine
    in
    Engine.run_streams h ph
  in
  let batched = run ~probed:false 2 dense in
  let batched_gen = run ~probed:false 2 (gen_phases phases) in
  let per_access = run ~probed:true 2 dense in
  check_bool "batched == per-access (probed)" true (batched = per_access);
  check_bool "batched dense == batched gen" true (batched = batched_gen);
  let exact = run ~probed:false 1 dense in
  check_int "total_accesses stays unscaled" exact.Stats.total_accesses
    batched.Stats.total_accesses;
  check_int "barriers unchanged" exact.Stats.barriers batched.Stats.barriers

let test_engine_sampling_error_bounds () =
  (* Extrapolated counters of a sampled run must stay near the exact
     run on a cache-friendly sweep: constant-bit sampling keeps whole
     sets, so per-set behaviour is representative. *)
  let machine = param_machine ~line:64 ~l1_sets:8 ~l2_sets:64 ~assoc:4 in
  let phase =
    [|
      Array.init 4000 (fun i ->
          Engine.encode_access ~addr:(i * 64 mod 65536) ~write:(i mod 9 = 0));
      Array.init 4000 (fun i ->
          Engine.encode_access
            ~addr:(((i * 64) + 32768) mod 65536)
            ~write:(i mod 11 = 0));
    |]
  in
  let dense = [ Engine.of_phase phase ] in
  let exact = Engine.run_streams (Hierarchy.create machine) dense in
  List.iter
    (fun factor ->
      let approx =
        Engine.run_streams (Hierarchy.create ~sample_sets:factor machine) dense
      in
      check_bool
        (Printf.sprintf "within 10%% at factor %d" factor)
        true
        (Stats.approx_equal ~rel_tol:0.10 exact approx))
    [ 2; 4; 8 ]

let test_engine_memo_replay () =
  (* A memoized re-run replays recorded deltas: byte-identical
     statistics, nonzero hit count, and exit cache state equal to the
     simulated run's (checked through the state hash). *)
  let machine = param_machine ~line:64 ~l1_sets:4 ~l2_sets:16 ~assoc:2 in
  let phases =
    [
      [| det_stream 0 200; det_stream 1 150 |];
      [| det_stream 2 80; det_stream 3 90 |];
    ]
  in
  let dense = List.map Engine.of_phase phases in
  let plain = Engine.run_streams (Hierarchy.create machine) dense in
  let memo = Memo.create () in
  let h = Hierarchy.create machine in
  let cold = Engine.run_streams ~memo h dense in
  let hash_cold = Hierarchy.state_hash h in
  check_bool "memoized run == plain run" true (cold = plain);
  check_int "cold run misses every phase" 2 (Memo.misses memo);
  check_int "cold run stores every phase" 2 (Memo.size memo);
  let warm = Engine.run_streams ~memo h dense in
  check_bool "replayed run byte-identical" true (warm = plain);
  check_int "warm run hits every phase" 2 (Memo.hits memo);
  check_bool "exit cache state restored" true
    (Hierarchy.state_hash h = hash_cold);
  (* Generator streams hash to the same phase key as the dense arrays
     they encode: representation must not split the memo. *)
  let again = Engine.run_streams ~memo h (gen_phases phases) in
  check_bool "gen streams hit dense entries" true (again = plain);
  check_int "no new entries" 2 (Memo.size memo);
  (* A probe makes the memo inert — simulated, not replayed, and the
     event stream is the ordinary one. *)
  let hits_before = Memo.hits memo in
  let s_obs, e_obs =
    run_logged (fun h p -> Engine.run_streams ~memo h p) ~machine dense
  in
  let s_ref, e_ref =
    run_logged (fun h p -> Engine.run_streams h p) ~machine dense
  in
  check_bool "observed run unaffected by memo" true
    (s_obs = s_ref && e_obs = e_ref);
  check_int "memo inert under probes" hits_before (Memo.hits memo)

let test_engine_memo_replay_then_write () =
  (* Phase 2 is replayed, putting line 0 into core 1's L1; phase 3 is
     simulated, and core 0's write must still invalidate that copy
     although core 0 was the last to write line 0 before the replay. *)
  let machine = tiny_machine () in
  let w = Engine.encode_access ~addr:0 ~write:true in
  let r = Engine.encode_access ~addr:0 ~write:false in
  let run ?memo h phases =
    Engine.run_streams ?memo h (List.map Engine.of_phase phases)
  in
  let write0 = [| [| w |]; [||] |] and read1 = [| [||]; [| r |] |] in
  let memo = Memo.create () in
  let h = Hierarchy.create machine in
  ignore (run ~memo h [ write0; read1 ]);
  (* Writing twice leaves the state writing once did, under a new key. *)
  let phases = [ [| [| w; w |]; [||] |]; read1; write0; read1 ] in
  let replayed = run ~memo h phases in
  check_bool "phase 2 replayed" true (Memo.hits memo >= 1);
  check_bool "replayed run == plain run" true
    (replayed = run (Hierarchy.create machine) phases)

let test_stats_rel_errors_and_approx_equal () =
  let exact =
    {
      Stats.per_level =
        [
          { Stats.level = 1; hits = 100; misses = 20 };
          { Stats.level = 2; hits = 10; misses = 10 };
        ];
      mem_accesses = 10;
      total_accesses = 120;
      cycles = 1000;
      core_cycles = [| 1000; 900 |];
      barriers = 1;
    }
  in
  let approx =
    {
      exact with
      Stats.per_level =
        [
          { Stats.level = 1; hits = 104; misses = 19 };
          { Stats.level = 2; hits = 10; misses = 10 };
        ];
      cycles = 1030;
    }
  in
  let errs = Stats.rel_errors ~exact ~approx in
  let e name = List.assoc name errs in
  check_bool "cycles err" true (abs_float (e "cycles" -. 0.03) < 1e-9);
  check_bool "L1 hits err" true (abs_float (e "L1_hits" -. 0.04) < 1e-9);
  check_bool "L2 exact" true (e "L2_misses" = 0.);
  check_bool "within 5%" true (Stats.approx_equal exact approx);
  check_bool "not within 1%" false (Stats.approx_equal ~rel_tol:0.01 exact approx);
  (* Structural mismatches are infinite, never masked by tolerance. *)
  let broken = { approx with Stats.total_accesses = 121 } in
  check_bool "structural member must match" false
    (Stats.approx_equal ~rel_tol:10. exact broken);
  check_bool "reports infinity" true
    (List.assoc "total_accesses" (Stats.rel_errors ~exact ~approx:broken)
    = infinity)

(* --- the bench scale sweep ------------------------------------------- *)

(* [bench/main.exe scale-sweep --quick --json 16] exits non-zero unless
   every streamed run equals its exact array-backed run.  Its rows carry
   positive exact and sampled cycle counts and speedups, and the sampled
   runs' cycle error stays under 20% on every row (EXPERIMENTS.md's worst
   row is 15.4%, the quick subset's 11.0%) and under 5% in geometric
   mean (measured about 2%). *)
let test_bench_scale_sweep () =
  let module J = Ctam_util.Json in
  let rows =
    Harness.out Harness.bench [ "scale-sweep"; "--quick"; "--json"; "16" ]
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (Harness.parse_json ~what:"scale-sweep line")
    |> List.filter (fun j ->
           J.member "experiment" j = Some (J.String "scale_sweep"))
  in
  check_bool "scale_sweep rows" true (rows <> []);
  let log_errs =
    List.map
      (fun row ->
        let label = J.to_string ~minify:true row in
        let num name =
          match J.member name row with
          | Some (J.Int i) -> float_of_int i
          | Some (J.Float f) -> f
          | _ -> Alcotest.failf "%s: no numeric %S" label name
        in
        List.iter
          (fun name ->
            if num name <= 0. then Alcotest.failf "%s: %s not positive" label name)
          [ "cycles_exact"; "cycles_sampled"; "sim_speedup" ];
        let err = num "rel_err_cycles" in
        if err < 0. || err > 0.20 then
          Alcotest.failf "%s: sampled-cycle error %.4f outside [0, 0.20]" label err;
        (* A floor keeps a row of zero error finite. *)
        log (Float.max err 1e-6))
      rows
  in
  let geomean =
    exp (List.fold_left ( +. ) 0. log_errs /. float_of_int (List.length rows))
  in
  check_bool (Printf.sprintf "error geomean %.4f <= 0.05" geomean) true
    (geomean <= 0.05)

let () =
  Alcotest.run "cachesim"
    [
      ( "setassoc",
        [
          Alcotest.test_case "basics" `Quick test_setassoc_basics;
          Alcotest.test_case "lru" `Quick test_setassoc_lru;
          Alcotest.test_case "sets disjoint" `Quick test_setassoc_sets_disjoint;
          Alcotest.test_case "invalidate" `Quick test_setassoc_invalidate;
          Alcotest.test_case "clear" `Quick test_setassoc_clear;
          Alcotest.test_case "non-power-of-two sets" `Quick
            test_setassoc_non_pow2_sets;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_access_after_insert_hits;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "inclusive fill" `Quick test_hierarchy_inclusive_fill;
          Alcotest.test_case "coherence" `Quick test_hierarchy_coherence;
          Alcotest.test_case "stats" `Quick test_hierarchy_stats;
          Alcotest.test_case "restore forgets writers" `Quick
            test_hierarchy_restore_forgets_writers;
          Alcotest.test_case "restore lists the image's caches" `Quick
            test_hierarchy_restore_lists_image;
          Alcotest.test_case "clear empties the filled list" `Quick
            test_hierarchy_clear_empties_filled;
          Alcotest.test_case "create is linear" `Quick
            test_hierarchy_create_linear;
          QCheck_alcotest.to_alcotest prop_hierarchy_matches_naive_model;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "simple" `Quick test_reuse_simple;
          Alcotest.test_case "distinct" `Quick test_reuse_distance_counts_distinct;
          Alcotest.test_case "hit ratio" `Quick test_reuse_hit_ratio;
          Alcotest.test_case "merge" `Quick test_reuse_merge;
          QCheck_alcotest.to_alcotest prop_reuse_agrees_with_fullassoc_lru;
        ] );
      ( "engine",
        [
          Alcotest.test_case "serial" `Quick test_engine_serial;
          Alcotest.test_case "parallel max" `Quick test_engine_parallel_max;
          Alcotest.test_case "barrier" `Quick test_engine_barrier;
          Alcotest.test_case "constructive sharing" `Quick
            test_engine_sharing_constructive;
          Alcotest.test_case "core mismatch" `Quick test_engine_core_count_mismatch;
          Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip;
          Alcotest.test_case "heap vs scan, 16-core machine" `Quick
            test_engine_heap_vs_scan_multicore;
          QCheck_alcotest.to_alcotest prop_heap_engine_matches_scan;
        ] );
      ( "streams",
        [
          Alcotest.test_case "capped run stops pulling" `Quick
            test_engine_capped_cursor;
          Alcotest.test_case "cursor length mismatch" `Quick
            test_engine_cursor_length_mismatch;
          Alcotest.test_case "sampling: batched == per-access" `Quick
            test_engine_sampling_batched_matches_per_access;
          Alcotest.test_case "sampling: error bounds" `Quick
            test_engine_sampling_error_bounds;
          Alcotest.test_case "memo replay" `Quick test_engine_memo_replay;
          Alcotest.test_case "memo replay, then a write" `Quick
            test_engine_memo_replay_then_write;
          Alcotest.test_case "rel_errors / approx_equal" `Quick
            test_stats_rel_errors_and_approx_equal;
          QCheck_alcotest.to_alcotest prop_gen_cursor_matches_dense;
          QCheck_alcotest.to_alcotest prop_stream_concat_matches_dense;
        ] );
      ( "bench",
        [
          Alcotest.test_case "scale sweep: exact streams, bounded sampling"
            `Quick test_bench_scale_sweep;
        ] );
    ]
