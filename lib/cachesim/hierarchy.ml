open Ctam_arch

type instance = {
  params : Topology.cache_params;
  cache : Setassoc.t;
}

type t = {
  topo : Topology.t;
  instances : instance array;
  (* paths.(core) = indices into [instances], L1 first (ascending). *)
  paths : int array array;
  (* Flattened per-core path data, parallel to [paths.(core)]: the hot
     access loop reads these int/cache arrays instead of chasing
     [instance] records. *)
  path_caches : Setassoc.t array array;
  path_latencies : int array array;
  path_levels : int array array;
  (* Instance [i] is on core [c]'s path iff core_lo.(i) <= c <=
     core_hi.(i): [Topology.make] numbers cores left to right, so the
     cores under a cache are contiguous. *)
  core_lo : int array;
  core_hi : int array;
  coherence : bool;
  (* Last-writer filter (empty without coherence).  Invariant: if
     [w_line.(s) = l] and [w_owner.(s) = c >= 0], every cache holding
     [l] is on core [c]'s path.  -1 is an empty slot, or an unknown
     owner. *)
  w_line : int array;
  w_owner : int array;
  (* The caches that may hold a line, in ascending instance order:
     [filled.(0 .. n_filled - 1)].  Every cache with a resident line is
     on it, so the write-invalidate sweep walks it instead of every
     instance.  [listed.(i)] says whether instance [i] is on it. *)
  filled : int array;
  mutable n_filled : int;
  listed : bool array;
  line : int;
  line_shift : int;  (* log2 line when line is a power of two, -1 otherwise *)
  levels : int array;  (* distinct cache levels, ascending *)
  level_index : int array;  (* instance index -> index into [levels] *)
  (* Set sampling (PR 7): simulate only lines with
     [line mod sample_factor = 0] and extrapolate.  The factor is a
     power of two dividing every cache's set count, so the sampled
     sets receive exactly the line population they would in an exact
     run (set = line mod sets maps sampled lines onto the sets
     congruent to 0 mod factor, and onto nothing else). *)
  sample_factor : int;
  config_hash : int;  (* topology+options fingerprint for the phase memo *)
  mutable mem_accesses : int;
  probe : Probe.t;
  observed : bool;  (* probe != Probe.null, cached for the hot path *)
}

let log2_exact n =
  let rec go s = if 1 lsl s = n then s else go (s + 1) in
  if n > 0 && n land (n - 1) = 0 then go 0 else -1

let sets_of (p : Topology.cache_params) = p.size_bytes / (p.assoc * p.line)

let check_sample_sets topo n =
  if n < 1 || n land (n - 1) <> 0 then
    Error "sample_sets must be a positive power of two"
  else
    match
      List.find_opt
        (fun p -> sets_of p mod n <> 0)
        (Topology.caches topo)
    with
    | None -> Ok ()
    | Some p ->
        Error
          (Printf.sprintf
             "sample_sets %d does not divide the %d sets of %s (pick a power \
              of two dividing every cache's set count)"
             n (sets_of p) p.Topology.cache_name)

(* Not a tuning knob: the sweeps left are the first write to a line
   after another core touched it, which more slots would not remove.
   The multiplicative hash keeps lines a power of two apart in
   different slots. *)
let filter_slots = 1024
let filter_slot line = ((line * 0x4F1BBCDCBFA53) land max_int) lsr 52

let create ?(coherence = true) ?(probe = Probe.null) ?(sample_sets = 1) topo =
  let params = Topology.caches topo in
  let line =
    match params with
    | [] -> invalid_arg "Hierarchy.create: no caches"
    | p :: rest ->
        List.iter
          (fun q ->
            if q.Topology.line <> p.Topology.line then
              invalid_arg "Hierarchy.create: mixed line sizes")
          rest;
        p.Topology.line
  in
  let instances =
    Array.of_list
      (List.map
         (fun (p : Topology.cache_params) ->
           {
             params = p;
             cache =
               Setassoc.create ~policy:p.policy ~sets:(sets_of p)
                 ~assoc:p.assoc ();
           })
         params)
  in
  (* One pre-order walk, in [Topology.caches] order, numbers the
     caches and records each core's path (L1 first) and each cache's
     core range. *)
  let ninst = Array.length instances in
  let paths = Array.make topo.Topology.num_cores [||] in
  let core_lo = Array.make ninst 0 and core_hi = Array.make ninst 0 in
  let next_inst = ref 0 and next_core = ref 0 in
  let rec walk above = function
    | Topology.Core c ->
        paths.(c) <- Array.of_list above;
        incr next_core
    | Topology.Cache (_, children) ->
        let i = !next_inst in
        incr next_inst;
        core_lo.(i) <- !next_core;
        List.iter (walk (i :: above)) children;
        core_hi.(i) <- !next_core - 1
  in
  List.iter (walk []) topo.Topology.roots;
  let path_caches =
    Array.map (Array.map (fun i -> instances.(i).cache)) paths
  in
  let path_latencies =
    Array.map (Array.map (fun i -> instances.(i).params.latency)) paths
  in
  let path_levels =
    Array.map (Array.map (fun i -> instances.(i).params.level)) paths
  in
  let levels =
    Array.of_list (List.sort_uniq compare (List.map (fun p -> p.Topology.level) params))
  in
  let level_index =
    Array.map
      (fun inst ->
        let rec find i =
          if levels.(i) = inst.params.level then i else find (i + 1)
        in
        find 0)
      instances
  in
  (match check_sample_sets topo sample_sets with
  | Ok () -> ()
  | Error e -> invalid_arg ("Hierarchy.create: " ^ e));
  let config_hash =
    let h =
      Array.fold_left
        (fun h inst ->
          let p = inst.params in
          let h = Memo.mix h p.Topology.level in
          let h = Memo.mix h (Setassoc.sets inst.cache) in
          let h = Memo.mix h p.Topology.assoc in
          let h = Memo.mix h (Policy.hash p.Topology.policy) in
          Memo.mix h p.Topology.latency)
        (Memo.mix Memo.seed topo.Topology.num_cores)
        instances
    in
    let h = Array.fold_left (fun h p -> Memo.mix_array h p) h paths in
    let h = Memo.mix h topo.Topology.mem_latency in
    let h = Memo.mix h line in
    let h = Memo.mix h (if coherence then 1 else 0) in
    fst (Memo.mix h sample_sets)
  in
  {
    topo;
    instances;
    paths;
    path_caches;
    path_latencies;
    path_levels;
    core_lo;
    core_hi;
    coherence;
    w_line = Array.make (if coherence then filter_slots else 0) (-1);
    w_owner = Array.make (if coherence then filter_slots else 0) (-1);
    filled = Array.make ninst 0;
    n_filled = 0;
    listed = Array.make ninst false;
    line;
    line_shift = log2_exact line;
    levels;
    level_index;
    sample_factor = sample_sets;
    config_hash;
    mem_accesses = 0;
    probe;
    observed = not (Probe.is_null probe);
  }

let topology t = t.topo
let probe t = t.probe

(* Put instance [i] on the filled list, keeping it ascending.  A cache
   joins at most once per [clear], so the shifts cost no more than one
   sweep. *)
let list_instance t i =
  t.listed.(i) <- true;
  let k = ref t.n_filled in
  while !k > 0 && t.filled.(!k - 1) > i do
    t.filled.(!k) <- t.filled.(!k - 1);
    decr k
  done;
  t.filled.(!k) <- i;
  t.n_filled <- t.n_filled + 1

let access t ~core ~addr ~write =
  if core < 0 || core >= Array.length t.paths then
    invalid_arg "Hierarchy.access: core out of range";
  (* Addresses are non-negative, so the shift matches the division. *)
  let line =
    if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line
  in
  let caches = t.path_caches.(core) in
  let latencies = t.path_latencies.(core) in
  let levels = t.path_levels.(core) in
  let n = Array.length caches in
  let observed = t.observed in
  (* Probe upward until a hit; accumulate probe latencies. *)
  let latency = ref 0 in
  let hit_at = ref (-1) in
  let k = ref 0 in
  while !hit_at < 0 && !k < n do
    let cache = caches.(!k) in
    latency := !latency + latencies.(!k);
    let hit = Setassoc.access cache line in
    if observed then
      t.probe.Probe.on_level ~core ~level:levels.(!k)
        ~set:(Setassoc.set_of_line cache line)
        ~line ~hit;
    if hit then hit_at := !k else incr k
  done;
  if !hit_at < 0 then begin
    t.mem_accesses <- t.mem_accesses + 1;
    latency := !latency + t.topo.Topology.mem_latency;
    if observed then t.probe.Probe.on_mem ~core ~line
  end;
  (* Inclusive fill: bring the line into every cache on the path below
     the hit point (all of them on a memory miss).  Each of those just
     missed, so the line is known absent. *)
  let fill_upto = if !hit_at < 0 then n - 1 else !hit_at - 1 in
  let path = t.paths.(core) in
  for j = 0 to fill_upto do
    let victim = Setassoc.fill caches.(j) line in
    if victim >= 0 && observed then
      t.probe.Probe.on_evict ~core ~level:levels.(j) ~line:victim;
    if not t.listed.(path.(j)) then list_instance t path.(j)
  done;
  (* Write-invalidate: every cache off this core's path loses the line,
     in ascending instance order, unless the filter shows none holds
     it.  Another core's fill makes the owner unknown.  A cache off the
     filled list is empty, so the sweep skips it. *)
  if t.coherence && (write || fill_upto >= 0) then begin
    let s = filter_slot line in
    let known = t.w_line.(s) = line in
    if known && fill_upto >= 0 && t.w_owner.(s) <> core then
      t.w_owner.(s) <- -1;
    if write && not (known && t.w_owner.(s) = core) then begin
      for k = 0 to t.n_filled - 1 do
        let i = t.filled.(k) in
        if core < t.core_lo.(i) || core > t.core_hi.(i) then begin
          let inst = t.instances.(i) in
          if Setassoc.invalidate inst.cache line && observed then
            t.probe.Probe.on_invalidate ~core ~level:inst.params.level ~line
        end
      done;
      t.w_line.(s) <- line;
      t.w_owner.(s) <- core
    end
  end;
  !latency

let hit_latency t ~core ~level =
  let path = t.paths.(core) in
  let latency = ref 0 in
  let found = ref false in
  Array.iter
    (fun i ->
      let inst = t.instances.(i) in
      if not !found then begin
        latency := !latency + inst.params.latency;
        if inst.params.level = level then found := true
      end)
    path;
  if !found then Some !latency else None

let miss_latency t ~core =
  let path = t.paths.(core) in
  Array.fold_left
    (fun acc i -> acc + t.instances.(i).params.latency)
    t.topo.Topology.mem_latency path

let level_stats t =
  (* The level list is fixed at [create] time; one pass over the
     instances accumulates into per-level slots (no per-call table). *)
  let n = Array.length t.levels in
  let hits = Array.make n 0 in
  let misses = Array.make n 0 in
  Array.iteri
    (fun i inst ->
      let li = t.level_index.(i) in
      hits.(li) <- hits.(li) + Setassoc.hits inst.cache;
      misses.(li) <- misses.(li) + Setassoc.misses inst.cache)
    t.instances;
  List.init n (fun i ->
      { Stats.level = t.levels.(i); hits = hits.(i); misses = misses.(i) })

let mem_accesses t = t.mem_accesses

(* A restored image can hold any line in any cache. *)
let forget_writers t = Array.fill t.w_line 0 (Array.length t.w_line) (-1)

let clear t =
  Array.iter (fun inst -> Setassoc.clear inst.cache) t.instances;
  forget_writers t;
  Array.fill t.listed 0 (Array.length t.listed) false;
  t.n_filled <- 0;
  t.mem_accesses <- 0

let line_size t = t.line
let line_shift t = t.line_shift

let line_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line

let sample_factor t = t.sample_factor
let config_hash t = t.config_hash
let num_instances t = Array.length t.instances

let snapshot t =
  Array.map (fun inst -> Setassoc.snapshot_lines inst.cache) t.instances

(* Whether a {!Setassoc.snapshot_lines} image of [cache] holds a line:
   the way array comes first, with -1 for an empty way. *)
let image_holds_line cache lines =
  let n = Setassoc.capacity_lines cache in
  let k = ref 0 in
  while !k < n && lines.(!k) < 0 do
    incr k
  done;
  !k < n

let restore t image =
  if Array.length image <> Array.length t.instances then
    invalid_arg "Hierarchy.restore: instance count mismatch";
  t.n_filled <- 0;
  Array.iteri
    (fun i lines ->
      let cache = t.instances.(i).cache in
      Setassoc.restore_lines cache lines;
      let holds = image_holds_line cache lines in
      t.listed.(i) <- holds;
      if holds then begin
        t.filled.(t.n_filled) <- i;
        t.n_filled <- t.n_filled + 1
      end)
    image;
  forget_writers t

let filled_instances t = Array.to_list (Array.sub t.filled 0 t.n_filled)

let instance_counts t =
  ( Array.map (fun inst -> Setassoc.hits inst.cache) t.instances,
    Array.map (fun inst -> Setassoc.misses inst.cache) t.instances )

let bump_counts t ~hits ~misses ~mem =
  if
    Array.length hits <> Array.length t.instances
    || Array.length misses <> Array.length t.instances
  then invalid_arg "Hierarchy.bump_counts: instance count mismatch";
  Array.iteri
    (fun i inst ->
      Setassoc.add_counts inst.cache ~hits:hits.(i) ~misses:misses.(i))
    t.instances;
  t.mem_accesses <- t.mem_accesses + mem

let state_hash t =
  Array.fold_left
    (fun h inst -> Setassoc.fold_lines Memo.mix h inst.cache)
    Memo.seed t.instances
