open Ctam_arch

(* Map sparse level numbers (1..4) to dense indices. *)
let level_index levels =
  let maxl = List.fold_left max 0 levels in
  let idx = Array.make (maxl + 1) (-1) in
  List.iteri (fun i l -> idx.(l) <- i) levels;
  idx

module Counters = struct
  type group_stat = {
    g_accesses : int;
    g_misses : int array;
    g_mem : int;
  }

  type gacc = {
    mutable a : int;
    am : int array;
    mutable amem : int;
  }

  type t = {
    levels : int list;
    lvl_idx : int array;
    nlevels : int;
    ncores : int;
    hits : int array array;
    misses : int array array;
    evicts : int array array;
    accesses : int array;
    writes : int array;
    mem : int array;
    mutable invalidations : int;
    mutable barriers : int;
    mutable nphases : int;
    segments : (int * int) array array array;
    (* Group-attribution cursor: per-core position in the current
       phase's stream, and the segment it falls in. *)
    pos : int array;
    segptr : int array;
    cur_group : int array;
    mutable phase_segs : (int * int) array array;
    groups : (int, gacc) Hashtbl.t;
  }

  let create ?(segments = []) topo =
    let levels = Topology.levels topo in
    let nlevels = List.length levels in
    let ncores = topo.Topology.num_cores in
    let mat () = Array.init ncores (fun _ -> Array.make nlevels 0) in
    {
      levels;
      lvl_idx = level_index levels;
      nlevels;
      ncores;
      hits = mat ();
      misses = mat ();
      evicts = mat ();
      accesses = Array.make ncores 0;
      writes = Array.make ncores 0;
      mem = Array.make ncores 0;
      invalidations = 0;
      barriers = 0;
      nphases = 0;
      segments = Array.of_list (List.map Array.copy segments);
      pos = Array.make ncores 0;
      segptr = Array.make ncores 0;
      cur_group = Array.make ncores (-1);
      phase_segs = Array.make ncores [||];
      groups = Hashtbl.create 64;
    }

  let gacc t id =
    match Hashtbl.find_opt t.groups id with
    | Some g -> g
    | None ->
        let g = { a = 0; am = Array.make t.nlevels 0; amem = 0 } in
        Hashtbl.add t.groups id g;
        g

  let li t level =
    if level < Array.length t.lvl_idx then t.lvl_idx.(level) else -1

  let probe t =
    {
      Probe.null with
      on_phase_start =
        (fun ~phase ->
          t.nphases <- max t.nphases (phase + 1);
          t.phase_segs <-
            (if phase < Array.length t.segments then t.segments.(phase)
             else Array.make t.ncores [||]);
          Array.fill t.pos 0 t.ncores 0;
          Array.fill t.segptr 0 t.ncores 0;
          Array.fill t.cur_group 0 t.ncores (-1));
      on_access =
        (fun ~core ~addr:_ ~line:_ ~write ->
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
          t.accesses.(core) <- t.accesses.(core) + 1;
          if write then t.writes.(core) <- t.writes.(core) + 1;
          if t.cur_group.(core) >= 0 then
            let g = gacc t t.cur_group.(core) in
            g.a <- g.a + 1);
      on_level =
        (fun ~core ~level ~set:_ ~line:_ ~hit ->
          let i = li t level in
          if i >= 0 then
            if hit then t.hits.(core).(i) <- t.hits.(core).(i) + 1
            else begin
              t.misses.(core).(i) <- t.misses.(core).(i) + 1;
              if t.cur_group.(core) >= 0 then
                let g = gacc t t.cur_group.(core) in
                g.am.(i) <- g.am.(i) + 1
            end);
      on_mem =
        (fun ~core ~line:_ ->
          t.mem.(core) <- t.mem.(core) + 1;
          if t.cur_group.(core) >= 0 then
            let g = gacc t t.cur_group.(core) in
            g.amem <- g.amem + 1);
      on_evict =
        (fun ~core ~level ~line:_ ->
          let i = li t level in
          if i >= 0 then t.evicts.(core).(i) <- t.evicts.(core).(i) + 1);
      on_invalidate =
        (fun ~core:_ ~level:_ ~line:_ ->
          t.invalidations <- t.invalidations + 1);
      on_barrier_enter =
        (fun ~phase:_ ~cycles:_ -> t.barriers <- t.barriers + 1);
    }

  let levels t = t.levels

  let cell m t ~core ~level =
    if core < 0 || core >= t.ncores then
      invalid_arg "Probe_sinks.Counters: core out of range";
    let i = li t level in
    if i < 0 then 0 else m.(core).(i)

  let hits t ~core ~level = cell t.hits t ~core ~level
  let misses t ~core ~level = cell t.misses t ~core ~level
  let evictions t ~core ~level = cell t.evicts t ~core ~level
  let accesses t ~core = t.accesses.(core)
  let writes t ~core = t.writes.(core)
  let mem t ~core = t.mem.(core)

  let per_level_totals t =
    List.mapi
      (fun i level ->
        let h = ref 0 and m = ref 0 in
        for c = 0 to t.ncores - 1 do
          h := !h + t.hits.(c).(i);
          m := !m + t.misses.(c).(i)
        done;
        { Stats.level; hits = !h; misses = !m })
      t.levels

  let total_accesses t = Array.fold_left ( + ) 0 t.accesses
  let mem_total t = Array.fold_left ( + ) 0 t.mem
  let invalidations_total t = t.invalidations
  let barriers t = t.barriers
  let phases t = t.nphases

  let group_stats t =
    Hashtbl.fold
      (fun id g acc ->
        (id, { g_accesses = g.a; g_misses = Array.copy g.am; g_mem = g.amem })
        :: acc)
      t.groups []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

module Reuse_split = struct
  type t = {
    online : Reuse.Online.t;
    last_core : (int, int) Hashtbl.t;
    root_of : int array;  (* distinct cores share a cache iff equal *)
    vertical : int array;
    horizontal : int array;
    cross : int array;
    mutable nvert : int;
    mutable nhoriz : int;
    mutable ncross : int;
    mutable cold : int;
    conflict_levels : int list;
    lvl_idx : int array;
    conflicts : int array array;
  }

  let create topo =
    let levels = Topology.levels topo in
    let sets_at l =
      List.fold_left
        (fun acc (p : Topology.cache_params) ->
          if p.level = l then max acc (p.size_bytes / (p.assoc * p.line))
          else acc)
        0 (Topology.caches topo)
    in
    {
      online = Reuse.Online.create ();
      last_core = Hashtbl.create 1024;
      root_of = Topology.root_of_cores topo;
      vertical = Array.make Reuse.nbuckets 0;
      horizontal = Array.make Reuse.nbuckets 0;
      cross = Array.make Reuse.nbuckets 0;
      nvert = 0;
      nhoriz = 0;
      ncross = 0;
      cold = 0;
      conflict_levels = levels;
      lvl_idx = level_index levels;
      conflicts = Array.of_list (List.map (fun l -> Array.make (sets_at l) 0) levels);
    }

  let probe t =
    {
      Probe.null with
      on_access =
        (fun ~core ~addr:_ ~line ~write:_ ->
          let prev = Hashtbl.find_opt t.last_core line in
          (match Reuse.Online.touch t.online line with
          | None -> t.cold <- t.cold + 1
          | Some d -> (
              let b = Reuse.bucket_of d in
              match prev with
              | Some c0 when c0 = core ->
                  t.vertical.(b) <- t.vertical.(b) + 1;
                  t.nvert <- t.nvert + 1
              | Some c0 when t.root_of.(c0) = t.root_of.(core) ->
                  t.horizontal.(b) <- t.horizontal.(b) + 1;
                  t.nhoriz <- t.nhoriz + 1
              | Some _ ->
                  t.cross.(b) <- t.cross.(b) + 1;
                  t.ncross <- t.ncross + 1
              | None ->
                  (* A line can be cold in [last_core] only if it is
                     cold in the stack too; keep the counters honest. *)
                  t.vertical.(b) <- t.vertical.(b) + 1;
                  t.nvert <- t.nvert + 1));
          Hashtbl.replace t.last_core line core);
      on_level =
        (fun ~core:_ ~level ~set ~line:_ ~hit ->
          if not hit then
            let i =
              if level < Array.length t.lvl_idx then t.lvl_idx.(level) else -1
            in
            if i >= 0 && set < Array.length t.conflicts.(i) then
              t.conflicts.(i).(set) <- t.conflicts.(i).(set) + 1);
    }

  let hist buckets count = { Reuse.buckets = Array.copy buckets; cold = 0; total = count }

  let vertical t = hist t.vertical t.nvert
  let horizontal t = hist t.horizontal t.nhoriz
  let cross t = hist t.cross t.ncross
  let cold t = t.cold
  let total t = Reuse.Online.touched t.online

  let conflicts t =
    List.mapi (fun i l -> (l, Array.copy t.conflicts.(i))) t.conflict_levels
end
