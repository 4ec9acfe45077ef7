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
  let snapshot t n =
    Array.init n (fun i -> if i < t.n then t.a.(i) else 0)
end

type span = {
  sp_core : int;
  sp_segment : int;  (* Mapping.segments id; -1 when untagged *)
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
  i_core : int;  (* the writing core *)
  i_level : int;
  i_line : int;
}

type phase_mark = { ph_index : int; ph_start : int; ph_end : int }

type core_series = {
  cs_accesses : Dyn.t;
  cs_busy : Dyn.t;
  cs_hits : Dyn.t array;    (* per dense level *)
  cs_misses : Dyn.t array;
}

type heat = {
  hm_sets : int;
  (* window -> (accesses per set, misses per set); allocated lazily so
     idle windows cost nothing. *)
  hm_cells : (int, int array * int array) Hashtbl.t;
}

type t = {
  topo : Topology.t;
  window : int;
  levels : int list;
  lvl_idx : int array;  (* sparse level -> dense index, -1 absent *)
  ncores : int;
  (* Mirror of the engine's per-core clocks, advanced by on_retire and
     barrier exits; [clock.(c)] is core [c]'s time when its next access
     issues, i.e. the start time of in-flight events. *)
  clock : int array;
  mutable max_cycles : int;
  (* group-attribution cursor, as in Probe_sinks.Counters *)
  segments : (int * int) array array array;
  pos : int array;
  segptr : int array;
  cur_group : int array;
  mutable phase_segs : (int * int) array array;
  mutable cur_phase : int;
  mutable cur_phase_start : int;
  (* open span per core, newest-first closed spans *)
  open_span : span option array;
  mutable spans_rev : span list;
  mutable barriers_rev : barrier list;
  mutable phases_rev : phase_mark list;
  mutable invals_rev : invalidation list;
  mutable invals_n : int;
  invals_cap : int;
  series : core_series array;
  reuse_online : Reuse.Online.t;
  last_core : (int, int) Hashtbl.t;
  root_of : int array;  (* distinct cores share a cache iff equal *)
  rs_vertical : Dyn.t;
  rs_horizontal : Dyn.t;
  rs_cross : Dyn.t;
  rs_cold : Dyn.t;
  heat : heat array;  (* per dense level *)
}

let level_index levels =
  let maxl = List.fold_left max 0 levels in
  let idx = Array.make (maxl + 1) (-1) in
  List.iteri (fun i l -> idx.(l) <- i) levels;
  idx

let default_window = 8192

let create ?(window = default_window) ?(max_invalidations = 10_000)
    ?(segments = []) topo =
  if window <= 0 then invalid_arg "Timeline.create: window must be positive";
  let levels = Topology.levels topo in
  let nlevels = List.length levels in
  let ncores = topo.Topology.num_cores in
  let sets_at l =
    List.fold_left
      (fun acc (p : Topology.cache_params) ->
        if p.level = l then max acc (p.size_bytes / (p.assoc * p.line))
        else acc)
      0 (Topology.caches topo)
  in
  {
    topo;
    window;
    levels;
    lvl_idx = level_index levels;
    ncores;
    clock = Array.make ncores 0;
    max_cycles = 0;
    segments = Array.of_list (List.map Array.copy segments);
    pos = Array.make ncores 0;
    segptr = Array.make ncores 0;
    cur_group = Array.make ncores (-1);
    phase_segs = Array.make ncores [||];
    cur_phase = -1;
    cur_phase_start = 0;
    open_span = Array.make ncores None;
    spans_rev = [];
    barriers_rev = [];
    phases_rev = [];
    invals_rev = [];
    invals_n = 0;
    invals_cap = max_invalidations;
    series =
      Array.init ncores (fun _ ->
          {
            cs_accesses = Dyn.create ();
            cs_busy = Dyn.create ();
            cs_hits = Array.init nlevels (fun _ -> Dyn.create ());
            cs_misses = Array.init nlevels (fun _ -> Dyn.create ());
          });
    reuse_online = Reuse.Online.create ();
    last_core = Hashtbl.create 1024;
    root_of = Topology.root_of_cores topo;
    rs_vertical = Dyn.create ();
    rs_horizontal = Dyn.create ();
    rs_cross = Dyn.create ();
    rs_cold = Dyn.create ();
    heat =
      Array.of_list
        (List.map
           (fun l -> { hm_sets = sets_at l; hm_cells = Hashtbl.create 32 })
           levels);
  }

let li t level =
  if level >= 0 && level < Array.length t.lvl_idx then t.lvl_idx.(level)
  else -1

let win t cycles = cycles / t.window

let close_span t core =
  match t.open_span.(core) with
  | None -> ()
  | Some sp ->
      t.spans_rev <- sp :: t.spans_rev;
      t.open_span.(core) <- None

let heat_cells t i w =
  let h = t.heat.(i) in
  match Hashtbl.find_opt h.hm_cells w with
  | Some cell -> cell
  | None ->
      let cell = (Array.make h.hm_sets 0, Array.make h.hm_sets 0) in
      Hashtbl.add h.hm_cells w cell;
      cell

let probe t =
  {
    Probe.null with
    on_phase_start =
      (fun ~phase ->
        t.cur_phase <- phase;
        (* Every core resumes at the same clock after a barrier; core
           0's mirror is as good as any (phase 0 starts at 0). *)
        t.cur_phase_start <- (if t.ncores > 0 then t.clock.(0) else 0);
        t.phase_segs <-
          (if phase < Array.length t.segments then t.segments.(phase)
           else Array.make t.ncores [||]);
        Array.fill t.pos 0 t.ncores 0;
        Array.fill t.segptr 0 t.ncores 0;
        Array.fill t.cur_group 0 t.ncores (-1));
    on_access =
      (fun ~core ~addr:_ ~line ~write:_ ->
        let segs =
          if core < Array.length t.phase_segs then t.phase_segs.(core)
          else [||]
        in
        let p = t.pos.(core) in
        while
          t.segptr.(core) < Array.length segs
          && fst segs.(t.segptr.(core)) <= p
        do
          t.cur_group.(core) <- snd segs.(t.segptr.(core));
          t.segptr.(core) <- t.segptr.(core) + 1
        done;
        t.pos.(core) <- p + 1;
        let now = t.clock.(core) in
        (* span bookkeeping: a new span when the group (or phase)
           changed since this core's previous access *)
        let seg = t.cur_group.(core) in
        (match t.open_span.(core) with
        | Some sp when sp.sp_segment = seg && sp.sp_phase = t.cur_phase -> ()
        | _ ->
            close_span t core;
            t.open_span.(core) <-
              Some
                {
                  sp_core = core;
                  sp_segment = seg;
                  sp_phase = t.cur_phase;
                  sp_start = now;
                  sp_end = now;
                  sp_accesses = 0;
                  sp_misses = 0;
                  sp_mem = 0;
                });
        (match t.open_span.(core) with
        | Some sp -> sp.sp_accesses <- sp.sp_accesses + 1
        | None -> ());
        let w = win t now in
        Dyn.bump t.series.(core).cs_accesses w 1;
        (* windowed reuse split *)
        let prev = Hashtbl.find_opt t.last_core line in
        (match Reuse.Online.touch t.reuse_online line with
        | None -> Dyn.bump t.rs_cold w 1
        | Some _ -> (
            match prev with
            | Some c0 when c0 = core -> Dyn.bump t.rs_vertical w 1
            | Some c0 when t.root_of.(c0) = t.root_of.(core) ->
                Dyn.bump t.rs_horizontal w 1
            | Some _ -> Dyn.bump t.rs_cross w 1
            | None -> Dyn.bump t.rs_vertical w 1));
        Hashtbl.replace t.last_core line core);
    on_level =
      (fun ~core ~level ~set ~line:_ ~hit ->
        let i = li t level in
        if i >= 0 then begin
          let w = win t t.clock.(core) in
          let s = t.series.(core) in
          if hit then Dyn.bump s.cs_hits.(i) w 1
          else begin
            Dyn.bump s.cs_misses.(i) w 1;
            (match t.open_span.(core) with
            | Some sp -> sp.sp_misses <- sp.sp_misses + 1
            | None -> ())
          end;
          if set >= 0 && set < t.heat.(i).hm_sets then begin
            let acc, miss = heat_cells t i w in
            acc.(set) <- acc.(set) + 1;
            if not hit then miss.(set) <- miss.(set) + 1
          end
        end);
    on_mem =
      (fun ~core ~line:_ ->
        match t.open_span.(core) with
        | Some sp -> sp.sp_mem <- sp.sp_mem + 1
        | None -> ());
    on_invalidate =
      (fun ~core ~level ~line ->
        t.invals_n <- t.invals_n + 1;
        if t.invals_n <= t.invals_cap then
          t.invals_rev <-
            { i_cycles = t.clock.(core); i_core = core; i_level = level; i_line = line }
            :: t.invals_rev);
    on_retire =
      (fun ~core ~cycles ->
        let before = t.clock.(core) in
        Dyn.bump t.series.(core).cs_busy (win t before) (cycles - before);
        t.clock.(core) <- cycles;
        if cycles > t.max_cycles then t.max_cycles <- cycles;
        match t.open_span.(core) with
        | Some sp -> sp.sp_end <- cycles
        | None -> ());
    on_phase_end =
      (fun ~phase ~cycles ->
        for c = 0 to t.ncores - 1 do
          close_span t c
        done;
        t.phases_rev <-
          { ph_index = phase; ph_start = t.cur_phase_start; ph_end = cycles }
          :: t.phases_rev;
        if cycles > t.max_cycles then t.max_cycles <- cycles);
    on_barrier_enter = (fun ~phase:_ ~cycles:_ -> ());
    on_barrier_exit =
      (fun ~phase ~cycles ->
        (* enter time = the phase's drain time, already recorded *)
        let enter =
          match t.phases_rev with
          | m :: _ when m.ph_index = phase -> m.ph_end
          | _ -> cycles
        in
        t.barriers_rev <- { b_phase = phase; b_enter = enter; b_exit = cycles } :: t.barriers_rev;
        Array.fill t.clock 0 t.ncores cycles;
        if cycles > t.max_cycles then t.max_cycles <- cycles);
  }

(* --- accessors -------------------------------------------------------- *)

let window t = t.window
let levels t = t.levels
let num_cores t = t.ncores
let max_cycles t = t.max_cycles
let num_windows t = if t.max_cycles = 0 then 0 else win t (t.max_cycles - 1) + 1

let spans t =
  (* chronological per core; stable global order by (start, core) *)
  List.stable_sort
    (fun a b ->
      if a.sp_start <> b.sp_start then compare a.sp_start b.sp_start
      else compare a.sp_core b.sp_core)
    (List.rev t.spans_rev)

let barriers t = List.rev t.barriers_rev
let phases t = List.rev t.phases_rev
let invalidations t = List.rev t.invals_rev
let total_invalidations t = t.invals_n
let dropped_invalidations t = max 0 (t.invals_n - t.invals_cap)

let accesses_series t ~core = Dyn.snapshot t.series.(core).cs_accesses (num_windows t)
let busy_series t ~core = Dyn.snapshot t.series.(core).cs_busy (num_windows t)

let hits_series t ~core ~level =
  let i = li t level in
  if i < 0 then Array.make (num_windows t) 0
  else Dyn.snapshot t.series.(core).cs_hits.(i) (num_windows t)

let misses_series t ~core ~level =
  let i = li t level in
  if i < 0 then Array.make (num_windows t) 0
  else Dyn.snapshot t.series.(core).cs_misses.(i) (num_windows t)

let reuse_series t =
  let n = num_windows t in
  ( Dyn.snapshot t.rs_vertical n,
    Dyn.snapshot t.rs_horizontal n,
    Dyn.snapshot t.rs_cross n,
    Dyn.snapshot t.rs_cold n )

let heatmap t ~level =
  let i = li t level in
  if i < 0 then None
  else begin
    let h = t.heat.(i) in
    let n = num_windows t in
    let acc = Array.init n (fun _ -> Array.make h.hm_sets 0) in
    let miss = Array.init n (fun _ -> Array.make h.hm_sets 0) in
    Hashtbl.iter
      (fun w (a, m) ->
        if w < n then begin
          acc.(w) <- Array.copy a;
          miss.(w) <- Array.copy m
        end)
      h.hm_cells;
    Some (h.hm_sets, acc, miss)
  end

(* --- ASCII heatmap renderer ------------------------------------------ *)

let ramp = " .:-=+*#%@"

let render_heatmap ?(width = 64) ?(height = 24) ?(misses = true) t ~level =
  match heatmap t ~level with
  | None -> None
  | Some (sets, acc, miss) ->
      let n = Array.length acc in
      if n = 0 || sets = 0 then None
      else begin
        let cells = if misses then miss else acc in
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
             "L%d %s heatmap: %d sets (rows, %d/row) x %d windows (cols, %d \
              cycles each), max cell %d\n"
             level
             (if misses then "conflict-miss" else "access")
             sets
             ((sets + rows - 1) / rows)
             n
             (t.window * ((n + cols - 1) / cols))
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
