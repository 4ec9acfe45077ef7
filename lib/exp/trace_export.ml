open Ctam_cachesim
module J = Ctam_util.Json

(* One simulated cycle is rendered as one trace microsecond (ts/dur are
   microseconds in the Chrome trace-event format); the compiler track
   converts wall seconds to microseconds, so both tracks use real trace
   units even though their time bases are unrelated. *)

type ev = {
  e_pid : int;
  e_tid : int;
  e_ts : int;
  e_order : int;  (* insertion rank: stable tie-break for equal ts *)
  e_json : J.t;
}

let window tl =
  match Sink.window tl with
  | Some w -> w
  | None -> invalid_arg "Trace_export: the sink keeps no timeline"

let pid_sim = 0
let pid_compiler = 1

let mk_ev ~pid ~tid ~ts ~order fields =
  {
    e_pid = pid;
    e_tid = tid;
    e_ts = ts;
    e_order = order;
    e_json =
      J.Obj (("pid", J.Int pid) :: ("tid", J.Int tid) :: ("ts", J.Int ts) :: fields);
  }

let meta ~pid ~tid ~order name value =
  mk_ev ~pid ~tid ~ts:0 ~order
    [
      ("ph", J.String "M");
      ("name", J.String name);
      ("args", J.Obj [ ("name", J.String value) ]);
    ]

let span_name legend seg =
  if seg < 0 then "untagged"
  else
    match List.assoc_opt seg legend with
    | Some (nest, group) -> Printf.sprintf "%s:g%d" nest group
    | None -> Printf.sprintf "seg%d" seg

let trace_events ?(compile_timings = []) ~legend tl =
  let ncores = Sink.num_cores tl in
  let tid_sync = ncores in
  let tid_coherence = ncores + 1 in
  let order = ref 0 in
  let evs = ref [] in
  let push e = incr order; evs := e :: !evs in
  let add ~pid ~tid ~ts fields = push (mk_ev ~pid ~tid ~ts ~order:!order fields) in
  (* metadata: names for both processes and every thread *)
  push (meta ~pid:pid_sim ~tid:0 ~order:!order "process_name" "simulated machine");
  push
    (meta ~pid:pid_compiler ~tid:0 ~order:!order "process_name" "ctamap compiler");
  for c = 0 to ncores - 1 do
    push
      (meta ~pid:pid_sim ~tid:c ~order:!order "thread_name"
         (Printf.sprintf "core %d" c))
  done;
  push (meta ~pid:pid_sim ~tid:tid_sync ~order:!order "thread_name" "sync");
  push
    (meta ~pid:pid_sim ~tid:tid_coherence ~order:!order "thread_name" "coherence");
  push (meta ~pid:pid_compiler ~tid:0 ~order:!order "thread_name" "compile phases");
  (* per-core iteration-group spans *)
  List.iter
    (fun (sp : Sink.span) ->
      add ~pid:pid_sim ~tid:sp.sp_core ~ts:sp.sp_start
        [
          ("ph", J.String "X");
          ("dur", J.Int (max 0 (sp.sp_end - sp.sp_start)));
          ("name", J.String (span_name legend sp.sp_segment));
          ("cat", J.String "group");
          ( "args",
            J.Obj
              [
                ("segment", J.Int sp.sp_segment);
                ("phase", J.Int sp.sp_phase);
                ("accesses", J.Int sp.sp_accesses);
                ("misses", J.Int sp.sp_misses);
                ("mem", J.Int sp.sp_mem);
              ] );
        ])
    (Sink.spans tl);
  (* phases as spans on the sync track, barriers as instants *)
  List.iter
    (fun (m : Sink.phase_mark) ->
      add ~pid:pid_sim ~tid:tid_sync ~ts:m.ph_start
        [
          ("ph", J.String "X");
          ("dur", J.Int (max 0 (m.ph_end - m.ph_start)));
          ("name", J.String (Printf.sprintf "phase %d" m.ph_index));
          ("cat", J.String "phase");
          ("args", J.Obj [ ("phase", J.Int m.ph_index) ]);
        ])
    (Sink.phase_marks tl);
  List.iter
    (fun (b : Sink.barrier) ->
      add ~pid:pid_sim ~tid:tid_sync ~ts:b.b_enter
        [
          ("ph", J.String "i");
          ("s", J.String "p");
          ("name", J.String (Printf.sprintf "barrier %d" b.b_phase));
          ("cat", J.String "barrier");
          ( "args",
            J.Obj
              [
                ("phase", J.Int b.b_phase);
                ("enter", J.Int b.b_enter);
                ("exit", J.Int b.b_exit);
                ("cost", J.Int (b.b_exit - b.b_enter));
              ] );
        ])
    (Sink.barrier_marks tl);
  (* write-invalidations on a dedicated coherence track *)
  List.iter
    (fun (i : Sink.invalidation) ->
      add ~pid:pid_sim ~tid:tid_coherence ~ts:i.i_cycles
        [
          ("ph", J.String "i");
          ("s", J.String "t");
          ("name", J.String "invalidate");
          ("cat", J.String "coherence");
          ( "args",
            J.Obj
              [
                ("writer", J.Int i.i_core);
                ("level", J.Int i.i_level);
                ("line", J.Int i.i_line);
              ] );
        ])
    (Sink.invalidation_log tl);
  (* counter tracks: per-core per-level hits/misses, sampled per window *)
  let w = window tl in
  let nw = Sink.num_windows tl in
  for c = 0 to ncores - 1 do
    List.iter
      (fun level ->
        let hits = Sink.hits_series tl ~core:c ~level in
        let misses = Sink.misses_series tl ~core:c ~level in
        for k = 0 to nw - 1 do
          add ~pid:pid_sim ~tid:c ~ts:(k * w)
            [
              ("ph", J.String "C");
              ("name", J.String (Printf.sprintf "core%d L%d" c level));
              ( "args",
                J.Obj
                  [ ("hits", J.Int hits.(k)); ("misses", J.Int misses.(k)) ] );
            ]
        done)
      (Sink.levels tl)
  done;
  (* machine-wide reuse split counter on the sync track *)
  let v, h, x, cold = Sink.reuse_series tl in
  for k = 0 to nw - 1 do
    add ~pid:pid_sim ~tid:tid_sync ~ts:(k * w)
      [
        ("ph", J.String "C");
        ("name", J.String "reuse split");
        ( "args",
          J.Obj
            [
              ("vertical", J.Int v.(k));
              ("horizontal", J.Int h.(k));
              ("cross_socket", J.Int x.(k));
              ("cold", J.Int cold.(k));
            ] );
      ]
  done;
  (* compile phases: back-to-back wall-clock spans on their own process *)
  let ts = ref 0 in
  List.iter
    (fun (phase, seconds) ->
      let dur = max 1 (int_of_float (seconds *. 1e6)) in
      add ~pid:pid_compiler ~tid:0 ~ts:!ts
        [
          ("ph", J.String "X");
          ("dur", J.Int dur);
          ("name", J.String phase);
          ("cat", J.String "compile");
          ("args", J.Obj [ ("seconds", J.Float seconds) ]);
        ];
      ts := !ts + dur)
    compile_timings;
  (* test_exp "traces valid" asserts non-decreasing ts per (pid, tid);
     sort each track by ts, breaking ties by insertion rank so output
     is deterministic. *)
  let sorted =
    List.stable_sort
      (fun a b ->
        if a.e_pid <> b.e_pid then compare a.e_pid b.e_pid
        else if a.e_tid <> b.e_tid then compare a.e_tid b.e_tid
        else if a.e_ts <> b.e_ts then compare a.e_ts b.e_ts
        else compare a.e_order b.e_order)
      (List.rev !evs)
  in
  List.map (fun e -> e.e_json) sorted

let trace_json ?compile_timings ~program ~machine ~scheme ~legend tl =
  J.Obj
    [
      ("traceEvents", J.List (trace_events ?compile_timings ~legend tl));
      ("displayTimeUnit", J.String "ms");
      ("version", J.String Build_info.version);
      ("program", J.String program);
      ("machine", J.String machine);
      ("scheme", J.String scheme);
      ("window", J.Int (window tl));
      ("cycles", J.Int (Sink.max_cycles tl));
      ( "dropped_invalidations",
        J.Int (Sink.dropped_invalidations tl) );
    ]

let int_series a = J.List (Array.to_list (Array.map (fun v -> J.Int v) a))

let series_json tl =
  let w = window tl in
  let nw = Sink.num_windows tl in
  let ncores = Sink.num_cores tl in
  let v, h, x, cold = Sink.reuse_series tl in
  J.Obj
    [
      ("window", J.Int w);
      ("num_windows", J.Int nw);
      ( "reuse",
        J.Obj
          [
            ("vertical", int_series v);
            ("horizontal", int_series h);
            ("cross_socket", int_series x);
            ("cold", int_series cold);
          ] );
      ( "cores",
        J.List
          (List.init ncores (fun c ->
               let busy = Sink.busy_series tl ~core:c in
               J.Obj
                 [
                   ("core", J.Int c);
                   ("accesses", int_series (Sink.accesses_series tl ~core:c));
                   ("busy", int_series busy);
                   (* busy cycles / window width; can exceed 1 because an
                      access's full cost lands in its issue window *)
                   ( "occupancy",
                     J.List
                       (List.init nw (fun k ->
                            J.Float (float_of_int busy.(k) /. float_of_int w)))
                   );
                   ( "levels",
                     J.List
                       (List.map
                          (fun level ->
                            let hits = Sink.hits_series tl ~core:c ~level in
                            let misses =
                              Sink.misses_series tl ~core:c ~level
                            in
                            J.Obj
                              [
                                ("level", J.Int level);
                                ("hits", int_series hits);
                                ("misses", int_series misses);
                                ( "miss_rate",
                                  J.List
                                    (List.init nw (fun k ->
                                         let t = hits.(k) + misses.(k) in
                                         J.Float
                                           (if t = 0 then 0.
                                            else
                                              float_of_int misses.(k)
                                              /. float_of_int t))) );
                              ])
                          (Sink.levels tl)) );
                 ])) );
    ]
