open Ctam_arch

(* Growable int array: windowed series are indexed by window number,
   whose count is unknown until the run ends. *)
module Dyn = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let ensure t i =
    if i >= Array.length t.a then begin
      let m = ref (Array.length t.a) in
      while i >= !m do
        m := !m * 2
      done;
      let a' = Array.make !m 0 in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    if i >= t.n then t.n <- i + 1

  let bump t i v =
    ensure t i;
    t.a.(i) <- t.a.(i) + v

  (* Snapshot padded/truncated to [n] windows. *)
  let snapshot t n = Array.init n (fun i -> if i < t.n then t.a.(i) else 0)
end

type group_stat = { g_accesses : int; g_misses : int array; g_mem : int }

(* A segment's group and its running totals; each core's cursor holds
   the one it is in. *)
type gacc = { id : int; mutable a : int; am : int array; mutable amem : int }

type span = {
  sp_core : int;
  sp_segment : int;
  sp_phase : int;
  sp_start : int;
  mutable sp_end : int;
  mutable sp_accesses : int;
  mutable sp_misses : int;
  mutable sp_mem : int;
}

type barrier = { b_phase : int; b_enter : int; b_exit : int }
type invalidation = {
  i_cycles : int;
  i_core : int;
  i_level : int;
  i_line : int;
}
type phase_mark = { ph_index : int; ph_start : int; ph_end : int }

type core_series = {
  cs_accesses : Dyn.t;
  cs_busy : Dyn.t;
  cs_hits : Dyn.t array;  (* per dense level *)
  cs_misses : Dyn.t array;
}

(* What a windowed sink keeps besides the run's totals. *)
type timeline = {
  window : int;
  (* Mirror of the engine's per-core clocks, advanced by on_retire and
     barrier exits; [clock.(c)] is core [c]'s time when its next access
     issues, i.e. the start time of in-flight events. *)
  clock : int array;
  mutable max_cycles : int;
  mutable cur_phase : int;
  mutable cur_phase_start : int;
  open_span : span option array;
  mutable spans_rev : span list;
  mutable barriers_rev : barrier list;
  mutable phases_rev : phase_mark list;
  mutable invals_rev : invalidation list;
  series : core_series array;
  by_direction : Dyn.t array;  (* accesses per window, per direction *)
  (* per dense level: window -> misses per set, allocated lazily so
     windows without a miss cost nothing *)
  heat : (int, int array) Hashtbl.t array;
}

type t = {
  levels : int list;
  lvl_idx : int array;  (* sparse level -> dense index, -1 absent *)
  nlevels : int;
  ncores : int;
  sets : int array;  (* per dense level: the most sets of any of its caches *)
  (* per core x dense level, at [core * nlevels + i] *)
  hits : int array;
  misses : int array;
  evicts : int array;
  accesses : int array;
  writes : int array;
  mem : int array;
  mutable invalidations : int;
  mutable barriers : int;
  (* Group cursor: per core, its position in the current phase's
     stream, the next segment boundary, and the group of the segment it
     is in ([untagged] outside every segment). *)
  segments : (int * int) array array array;
  mutable phase_segs : (int * int) array array;
  pos : int array;
  segptr : int array;
  gcur : gacc array;
  untagged : gacc;
  groups : (int, gacc) Hashtbl.t;
  online : Reuse.Online.t;
  root_of : int array;  (* distinct cores share a cache iff equal *)
  (* finite reuse distances at [direction * nbuckets + bucket] *)
  split : int array;
  mutable cold : int;
  conflicts : int array array;  (* per dense level, per set *)
  tl : timeline option;
}

(* Reuse directions, as indices into [split] and [by_direction]. *)
let vertical_dir = 0
let horizontal_dir = 1
let cross_dir = 2
let cold_dir = 3
let max_invalidations = 10_000

let create ?window ?(segments = []) topo =
  let levels = Topology.levels topo in
  let nlevels = List.length levels in
  let ncores = topo.Topology.num_cores in
  let lvl_idx = Array.make (List.fold_left max 0 levels + 1) (-1) in
  List.iteri (fun i l -> lvl_idx.(l) <- i) levels;
  let sets = Array.make nlevels 0 in
  List.iter
    (fun (p : Topology.cache_params) ->
      let i = lvl_idx.(p.level) in
      sets.(i) <- max sets.(i) (p.size_bytes / (p.assoc * p.line)))
    (Topology.caches topo);
  let tl =
    Option.map
      (fun window ->
        if window <= 0 then invalid_arg "Sink.create: window must be positive";
        {
          window;
          clock = Array.make ncores 0;
          max_cycles = 0;
          cur_phase = -1;
          cur_phase_start = 0;
          open_span = Array.make ncores None;
          spans_rev = [];
          barriers_rev = [];
          phases_rev = [];
          invals_rev = [];
          series =
            Array.init ncores (fun _ ->
                {
                  cs_accesses = Dyn.create ();
                  cs_busy = Dyn.create ();
                  cs_hits = Array.init nlevels (fun _ -> Dyn.create ());
                  cs_misses = Array.init nlevels (fun _ -> Dyn.create ());
                });
          by_direction = Array.init 4 (fun _ -> Dyn.create ());
          heat = Array.init nlevels (fun _ -> Hashtbl.create 32);
        })
      window
  in
  let untagged = { id = -1; a = 0; am = Array.make nlevels 0; amem = 0 } in
  {
    levels;
    lvl_idx;
    nlevels;
    ncores;
    sets;
    hits = Array.make (ncores * nlevels) 0;
    misses = Array.make (ncores * nlevels) 0;
    evicts = Array.make (ncores * nlevels) 0;
    accesses = Array.make ncores 0;
    writes = Array.make ncores 0;
    mem = Array.make ncores 0;
    invalidations = 0;
    barriers = 0;
    segments = Array.of_list segments;
    phase_segs = [||];
    pos = Array.make ncores 0;
    segptr = Array.make ncores 0;
    gcur = Array.make ncores untagged;
    untagged;
    groups = Hashtbl.create 64;
    online = Reuse.Online.create ();
    root_of = Topology.root_of_cores topo;
    split = Array.make (3 * Reuse.nbuckets) 0;
    cold = 0;
    conflicts = Array.map (fun n -> Array.make n 0) sets;
    tl;
  }

let li t level =
  if level >= 0 && level < Array.length t.lvl_idx then t.lvl_idx.(level)
  else -1

(* --- events ------------------------------------------------------------ *)

let phase_start t ~phase =
  t.phase_segs <-
    (if phase < Array.length t.segments then t.segments.(phase)
     else [||]);
  Array.fill t.pos 0 t.ncores 0;
  Array.fill t.segptr 0 t.ncores 0;
  Array.fill t.gcur 0 t.ncores t.untagged;
  match t.tl with
  | None -> ()
  | Some tl ->
      tl.cur_phase <- phase;
      (* Every core resumes at the same clock after a barrier; core 0's
         mirror is as good as any (phase 0 starts at 0). *)
      tl.cur_phase_start <- (if t.ncores > 0 then tl.clock.(0) else 0)

(* Move [core]'s cursor to the segment holding its next access; a
   segment's group totals are looked up once, on entry. *)
let advance t core =
  let segs =
    if core < Array.length t.phase_segs then t.phase_segs.(core) else [||]
  in
  let p = t.pos.(core) in
  let k = t.segptr.(core) in
  if k < Array.length segs && fst segs.(k) <= p then begin
    let k = ref (k + 1) in
    while !k < Array.length segs && fst segs.(!k) <= p do
      incr k
    done;
    t.segptr.(core) <- !k;
    let id = snd segs.(!k - 1) in
    t.gcur.(core) <-
      (match Hashtbl.find_opt t.groups id with
      | Some g -> g
      | None ->
          let g = { id; a = 0; am = Array.make t.nlevels 0; amem = 0 } in
          Hashtbl.add t.groups id g;
          g)
  end;
  t.pos.(core) <- p + 1

(* The direction of a reuse: by the same core (vertical, the paper's
   beta), by a core sharing a cache with it (horizontal, alpha), or by a
   core of another socket. *)
let classify t ~core line =
  let d = Reuse.Online.touch t.online ~core line in
  if d < 0 then begin
    t.cold <- t.cold + 1;
    cold_dir
  end
  else begin
    let c0 = Reuse.Online.previous_core t.online in
    let dir =
      if c0 = core then vertical_dir
      else if t.root_of.(c0) = t.root_of.(core) then horizontal_dir
      else cross_dir
    in
    let k = (dir * Reuse.nbuckets) + Reuse.bucket_of d in
    t.split.(k) <- t.split.(k) + 1;
    dir
  end

let close_span tl core =
  match tl.open_span.(core) with
  | None -> ()
  | Some sp ->
      tl.spans_rev <- sp :: tl.spans_rev;
      tl.open_span.(core) <- None

let access t ~core ~line ~write =
  advance t core;
  t.accesses.(core) <- t.accesses.(core) + 1;
  if write then t.writes.(core) <- t.writes.(core) + 1;
  let g = t.gcur.(core) in
  g.a <- g.a + 1;
  let dir = classify t ~core line in
  match t.tl with
  | None -> ()
  | Some tl ->
      let now = tl.clock.(core) in
      let seg = g.id in
      (* a new span when the segment (or phase) changed since this
         core's previous access *)
      (match tl.open_span.(core) with
      | Some sp when sp.sp_segment = seg && sp.sp_phase = tl.cur_phase ->
          sp.sp_accesses <- sp.sp_accesses + 1
      | _ ->
          close_span tl core;
          tl.open_span.(core) <-
            Some
              {
                sp_core = core;
                sp_segment = seg;
                sp_phase = tl.cur_phase;
                sp_start = now;
                sp_end = now;
                sp_accesses = 1;
                sp_misses = 0;
                sp_mem = 0;
              });
      let w = now / tl.window in
      Dyn.bump tl.series.(core).cs_accesses w 1;
      Dyn.bump tl.by_direction.(dir) w 1

let level_probe t ~core ~level ~set ~hit =
  let i = li t level in
  if i >= 0 then begin
    let k = (core * t.nlevels) + i in
    let counted = set >= 0 && set < t.sets.(i) in
    if hit then t.hits.(k) <- t.hits.(k) + 1
    else begin
      t.misses.(k) <- t.misses.(k) + 1;
      let g = t.gcur.(core) in
      g.am.(i) <- g.am.(i) + 1;
      if counted then t.conflicts.(i).(set) <- t.conflicts.(i).(set) + 1
    end;
    match t.tl with
    | None -> ()
    | Some tl ->
        let w = tl.clock.(core) / tl.window in
        let s = tl.series.(core) in
        if hit then Dyn.bump s.cs_hits.(i) w 1
        else begin
          Dyn.bump s.cs_misses.(i) w 1;
          (match tl.open_span.(core) with
          | Some sp -> sp.sp_misses <- sp.sp_misses + 1
          | None -> ());
          if counted then begin
            let miss =
              match Hashtbl.find_opt tl.heat.(i) w with
              | Some cell -> cell
              | None ->
                  let cell = Array.make t.sets.(i) 0 in
                  Hashtbl.add tl.heat.(i) w cell;
                  cell
            in
            miss.(set) <- miss.(set) + 1
          end
        end
  end

let memory t ~core =
  t.mem.(core) <- t.mem.(core) + 1;
  let g = t.gcur.(core) in
  g.amem <- g.amem + 1;
  match t.tl with
  | Some { open_span; _ } -> (
      match open_span.(core) with
      | Some sp -> sp.sp_mem <- sp.sp_mem + 1
      | None -> ())
  | None -> ()

let invalidate t ~core ~level ~line =
  t.invalidations <- t.invalidations + 1;
  match t.tl with
  | Some tl when t.invalidations <= max_invalidations ->
      tl.invals_rev <-
        {
          i_cycles = tl.clock.(core);
          i_core = core;
          i_level = level;
          i_line = line;
        }
        :: tl.invals_rev
  | _ -> ()

let retire t ~core ~cycles =
  match t.tl with
  | None -> ()
  | Some tl -> (
      let before = tl.clock.(core) in
      Dyn.bump tl.series.(core).cs_busy (before / tl.window) (cycles - before);
      tl.clock.(core) <- cycles;
      if cycles > tl.max_cycles then tl.max_cycles <- cycles;
      match tl.open_span.(core) with
      | Some sp -> sp.sp_end <- cycles
      | None -> ())

let phase_end t ~phase ~cycles =
  match t.tl with
  | None -> ()
  | Some tl ->
      for c = 0 to t.ncores - 1 do
        close_span tl c
      done;
      tl.phases_rev <-
        { ph_index = phase; ph_start = tl.cur_phase_start; ph_end = cycles }
        :: tl.phases_rev;
      if cycles > tl.max_cycles then tl.max_cycles <- cycles

let barrier_exit t ~phase ~cycles =
  match t.tl with
  | None -> ()
  | Some tl ->
      (* enter time = the phase's drain time, already recorded *)
      let enter =
        match tl.phases_rev with
        | m :: _ when m.ph_index = phase -> m.ph_end
        | _ -> cycles
      in
      tl.barriers_rev <-
        { b_phase = phase; b_enter = enter; b_exit = cycles }
        :: tl.barriers_rev;
      Array.fill tl.clock 0 t.ncores cycles;
      if cycles > tl.max_cycles then tl.max_cycles <- cycles

let probe t =
  {
    Probe.on_access =
      (fun ~core ~addr:_ ~line ~write -> access t ~core ~line ~write);
    on_level =
      (fun ~core ~level ~set ~line:_ ~hit ->
        level_probe t ~core ~level ~set ~hit);
    on_mem = (fun ~core ~line:_ -> memory t ~core);
    on_evict =
      (fun ~core ~level ~line:_ ->
        let i = li t level in
        if i >= 0 then
          let k = (core * t.nlevels) + i in
          t.evicts.(k) <- t.evicts.(k) + 1);
    on_invalidate = (fun ~core ~level ~line -> invalidate t ~core ~level ~line);
    on_retire = (fun ~core ~cycles -> retire t ~core ~cycles);
    on_phase_start = (fun ~phase -> phase_start t ~phase);
    on_phase_end = (fun ~phase ~cycles -> phase_end t ~phase ~cycles);
    on_barrier_enter = (fun ~phase:_ ~cycles:_ -> t.barriers <- t.barriers + 1);
    on_barrier_exit = (fun ~phase ~cycles -> barrier_exit t ~phase ~cycles);
  }

(* --- totals ------------------------------------------------------------ *)

let levels t = t.levels
let num_cores t = t.ncores

let cell m t ~core ~level =
  if core < 0 || core >= t.ncores then invalid_arg "Sink: core out of range";
  let i = li t level in
  if i < 0 then 0 else m.((core * t.nlevels) + i)

let hits t ~core ~level = cell t.hits t ~core ~level
let misses t ~core ~level = cell t.misses t ~core ~level
let evictions t ~core ~level = cell t.evicts t ~core ~level
let accesses t ~core = t.accesses.(core)
let writes t ~core = t.writes.(core)
let mem t ~core = t.mem.(core)
let invalidations t = t.invalidations
let barriers t = t.barriers

let group_stats t =
  Hashtbl.fold
    (fun id g acc ->
      (id, { g_accesses = g.a; g_misses = Array.copy g.am; g_mem = g.amem })
      :: acc)
    t.groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram t dir =
  let buckets = Array.sub t.split (dir * Reuse.nbuckets) Reuse.nbuckets in
  { Reuse.buckets; cold = 0; total = Array.fold_left ( + ) 0 buckets }

let vertical t = histogram t vertical_dir
let horizontal t = histogram t horizontal_dir
let cross t = histogram t cross_dir
let cold t = t.cold
let total t = Reuse.Online.touched t.online
let conflicts t =
  List.mapi (fun i l -> (l, Array.copy t.conflicts.(i))) t.levels

(* --- timeline ---------------------------------------------------------- *)

let window t = Option.map (fun tl -> tl.window) t.tl

let timeline t =
  match t.tl with
  | Some tl -> tl
  | None -> invalid_arg "Sink: created without a window"

let max_cycles t = (timeline t).max_cycles

let num_windows t =
  let tl = timeline t in
  if tl.max_cycles = 0 then 0 else ((tl.max_cycles - 1) / tl.window) + 1

let spans t =
  (* chronological per core; stable global order by (start, core) *)
  List.stable_sort
    (fun a b ->
      if a.sp_start <> b.sp_start then compare a.sp_start b.sp_start
      else compare a.sp_core b.sp_core)
    (List.rev (timeline t).spans_rev)

let barrier_marks t = List.rev (timeline t).barriers_rev
let phase_marks t = List.rev (timeline t).phases_rev
let invalidation_log t = List.rev (timeline t).invals_rev

let dropped_invalidations t =
  ignore (timeline t);
  max 0 (t.invalidations - max_invalidations)

let accesses_series t ~core =
  Dyn.snapshot (timeline t).series.(core).cs_accesses (num_windows t)

let busy_series t ~core =
  Dyn.snapshot (timeline t).series.(core).cs_busy (num_windows t)

let level_series pick t ~core ~level =
  let s = (timeline t).series.(core) in
  let i = li t level in
  if i < 0 then Array.make (num_windows t) 0
  else Dyn.snapshot (pick s).(i) (num_windows t)

let hits_series = level_series (fun s -> s.cs_hits)
let misses_series = level_series (fun s -> s.cs_misses)

let reuse_series t =
  let n = num_windows t in
  let d = (timeline t).by_direction in
  ( Dyn.snapshot d.(vertical_dir) n,
    Dyn.snapshot d.(horizontal_dir) n,
    Dyn.snapshot d.(cross_dir) n,
    Dyn.snapshot d.(cold_dir) n )

let heatmap t ~level =
  let tl = timeline t in
  let i = li t level in
  if i < 0 then None
  else begin
    let sets = t.sets.(i) in
    let n = num_windows t in
    let miss = Array.init n (fun _ -> Array.make sets 0) in
    Hashtbl.iter
      (fun w m -> if w < n then miss.(w) <- Array.copy m)
      tl.heat.(i);
    Some (sets, miss)
  end

(* --- ASCII heatmap renderer -------------------------------------------- *)

let ramp = " .:-=+*#%@"

(* The rendering's largest grid: columns (windows) by rows (sets). *)
let width = 64
let height = 24

let render_heatmap t ~level =
  match heatmap t ~level with
  | None -> None
  | Some (sets, cells) ->
      let n = Array.length cells in
      if n = 0 || sets = 0 then None
      else begin
        let cols = min width n in
        let rows = min height sets in
        (* Downsample by summing rectangular buckets so totals are
           preserved within a bucket. *)
        let grid = Array.make_matrix rows cols 0 in
        for w = 0 to n - 1 do
          let c = w * cols / n in
          let col = cells.(w) in
          for s = 0 to sets - 1 do
            let r = s * rows / sets in
            grid.(r).(c) <- grid.(r).(c) + col.(s)
          done
        done;
        let maxv = Array.fold_left (Array.fold_left max) 0 grid in
        let b = Buffer.create ((rows + 3) * (cols + 12)) in
        Buffer.add_string b
          (Printf.sprintf
             "L%d conflict-miss heatmap: %d sets (rows, %d/row) x %d windows \
              (cols, %d cycles each), max cell %d\n"
             level sets
             ((sets + rows - 1) / rows)
             n
             ((timeline t).window * ((n + cols - 1) / cols))
             maxv);
        for r = 0 to rows - 1 do
          Buffer.add_string b (Printf.sprintf "%5d |" (r * sets / rows));
          for c = 0 to cols - 1 do
            let v = grid.(r).(c) in
            let k =
              if maxv = 0 || v = 0 then 0
              else
                min
                  (1 + ((v * (String.length ramp - 2)) + maxv - 1) / maxv)
                  (String.length ramp - 1)
            in
            Buffer.add_char b ramp.[k]
          done;
          Buffer.add_string b "|\n"
        done;
        Buffer.add_string b
          (Printf.sprintf "%5s +%s+ scale \"%s\" (0..max)\n" ""
             (String.make cols '-') ramp);
        Some (Buffer.contents b)
      end
