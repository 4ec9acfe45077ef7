open Ctam_arch
open Ctam_ir
open Ctam_cachesim
open Ctam_core
module J = Ctam_util.Json

type strategy = Grid | Descent | Halving

let strategy_id = function
  | Grid -> "grid"
  | Descent -> "descent"
  | Halving -> "halving"

let strategy_of_id = function
  | "grid" -> Ok Grid
  | "descent" -> Ok Descent
  | "halving" -> Ok Halving
  | s -> Error (Printf.sprintf "unknown strategy '%s' (grid|descent|halving)" s)

type settings = {
  strategy : strategy;
  axes : Space.axes;
  budget : int option;
  cache_dir : string option;
  jobs : int option;
  base_params : Mapping.params;
  verify : bool;
  stream : bool;
  sample_sets : int;
  memo : bool;
}

let default_settings =
  {
    strategy = Grid;
    axes = Space.default_axes;
    budget = None;
    cache_dir = None;
    jobs = None;
    base_params = Mapping.default_params;
    verify = false;
    stream = false;
    sample_sets = 1;
    memo = false;
  }

type trial = {
  point : Space.point;
  outcome : Eval.outcome;
  rung : int option;
  from_cache : bool;
}

type result = {
  program_name : string;
  machine_name : string;
  strategy_used : strategy;
  baseline : trial;
  best : trial;
  trials : trial list;
  simulations : int;
  cache_hits : int;
  verify_ok : bool option;
}

(* Mutable per-run state threaded through the strategies.  The memo
   keeps one entry per (point, cap) key so revisited points (descent
   circles back constantly) cost nothing and appear once in the trial
   list; counters and the trial log are only touched serially, before
   and after each parallel batch. *)
type ctx = {
  s : settings;
  machine : Topology.t;
  program : Program.t;
  memo : (string, Eval.outcome * bool) Hashtbl.t;
  (* Engine-level phase memo shared by every evaluation of the run
     (including across domains — the table locks internally); distinct
     from [memo] above, which caches whole outcomes by point key. *)
  sim_memo : Memo.t option;
  mutable sims : int;
  mutable budgeted : int;  (* evaluations charged against the budget:
                              everything but the baseline and memo
                              re-requests *)
  mutable hits : int;
  mutable trials_rev : trial list;
}

let key_of ctx ~max_cycles point =
  Cache.key ~version:Ctam_exp.Build_info.version ~base_params:ctx.s.base_params
    ~machine:ctx.machine ~max_cycles ~sample_sets:ctx.s.sample_sets ctx.program
    point

(* Evaluate a batch of points under one cycle cap.  Returns the batch's
   (point, outcome) pairs in input order, minus points dropped by the
   simulation budget.  Persistent-cache traffic and all bookkeeping are
   serial; only the cache-miss simulations fan out, and [Parallel.map]
   preserves order, so the result is independent of the job count. *)
let eval_batch ctx ?max_cycles ?(ignore_budget = false) points =
  let points =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun p ->
        let p = Space.canonical p in
        let k = key_of ctx ~max_cycles p in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (p, k)
        end)
      points
  in
  (* The budget caps points evaluated beyond the baseline.  A
     persistent-cache hit costs nothing but still consumes budget, so
     the set of points a budgeted search looks at — and therefore its
     result — is identical whether the cache is cold or warm; only the
     simulations/cache_hits counters differ.  Memo re-requests of
     already-evaluated points are always free. *)
  let remaining =
    ref
      (match ctx.s.budget with
      | Some b when not ignore_budget -> max 0 (b - ctx.budgeted)
      | _ -> max_int)
  in
  let resolved =
    List.map
      (fun (p, k) ->
        match Hashtbl.find_opt ctx.memo k with
        | Some (o, _) -> (p, k, `Memo o)
        | None ->
            if !remaining <= 0 then (p, k, `Dropped)
            else begin
              decr remaining;
              if not ignore_budget then ctx.budgeted <- ctx.budgeted + 1;
              match ctx.s.cache_dir with
              | Some dir -> (
                  match Cache.lookup ~dir k with
                  | Some o ->
                      ctx.hits <- ctx.hits + 1;
                      Hashtbl.add ctx.memo k (o, true);
                      (p, k, `Hit o)
                  | None -> (p, k, `Miss))
              | None -> (p, k, `Miss)
            end)
      points
  in
  let misses =
    List.filter_map
      (fun (p, k, st) -> match st with `Miss -> Some (p, k) | _ -> None)
      resolved
  in
  let outcomes =
    Ctam_util.Parallel.map ?domains:ctx.s.jobs
      (fun (p, _) ->
        Eval.evaluate ~base_params:ctx.s.base_params ?max_cycles
          ~stream:ctx.s.stream
          ?sample_sets:
            (if ctx.s.sample_sets > 1 then Some ctx.s.sample_sets else None)
          ?memo:ctx.sim_memo ~machine:ctx.machine ctx.program p)
      misses
  in
  List.iter2
    (fun (_, k) o ->
      ctx.sims <- ctx.sims + 1;
      Hashtbl.add ctx.memo k (o, false);
      match ctx.s.cache_dir with
      | Some dir -> Cache.store ~dir k o
      | None -> ())
    misses outcomes;
  List.filter_map
    (fun (p, k, st) ->
      let record o from_cache =
        ctx.trials_rev <-
          { point = p; outcome = o; rung = max_cycles; from_cache }
          :: ctx.trials_rev;
        Some (p, o)
      in
      match st with
      | `Memo o -> Some (p, o)
      | `Hit o -> record o true
      | `Dropped -> None (* over the evaluation budget *)
      | `Miss -> (
          match Hashtbl.find_opt ctx.memo k with
          | Some (o, from_cache) -> record o from_cache
          | None -> None))
    resolved

(* Strictly-better-only comparison: ties keep the earlier point, so the
   baseline wins all draws and enumeration order is the final
   tiebreak. *)
let pick_best candidates =
  List.fold_left
    (fun best (p, o) ->
      match best with
      | None -> Some (p, o)
      | Some (_, bo) ->
          if Eval.compare_outcome o bo < 0 then Some (p, o) else best)
    None candidates

let run_grid ctx baseline =
  let evals = eval_batch ctx (Space.grid ctx.s.axes) in
  pick_best (baseline :: evals)

let run_descent ctx baseline =
  let incumbent = ref baseline in
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !sweeps < 10 do
    improved := false;
    incr sweeps;
    List.iter
      (fun candidates ->
        let evals = eval_batch ctx candidates in
        match pick_best (!incumbent :: evals) with
        | Some (p, o) when not (Space.equal p (fst !incumbent)) ->
            incumbent := (p, o);
            improved := true
        | _ -> ())
      (Space.axis_candidates ctx.s.axes (fst !incumbent))
  done;
  let polish = eval_batch ctx (Space.refine ~around:(fst !incumbent)) in
  pick_best (!incumbent :: polish)

let run_halving ctx baseline =
  let _, base_outcome = baseline in
  let full_cycles = base_outcome.Eval.cycles in
  let pts = ref (Space.grid ctx.s.axes) in
  let cap = ref (max 1 (full_cycles / 4)) in
  while List.length !pts > 4 && !cap < full_cycles do
    let capped = eval_batch ctx ~max_cycles:!cap !pts in
    (* rank by capped score, grid position as the deterministic
       tiebreak; a loser's rung run costs at most [cap] simulated
       cycles instead of its full length *)
    let ranked =
      List.mapi (fun i (p, o) -> (Eval.score o, i, p)) capped
      |> List.sort compare
    in
    let keep = (List.length ranked + 1) / 2 in
    pts :=
      List.filteri (fun i _ -> i < keep) ranked
      |> List.map (fun (_, _, p) -> p);
    cap := !cap * 2
  done;
  (* survivors get their true, uncapped cost; capped trials never
     become the best directly *)
  let final = eval_batch ctx !pts in
  pick_best (baseline :: final)

let improvement r =
  if r.best.outcome.Eval.cycles <= 0 then 1.0
  else
    float_of_int r.baseline.outcome.Eval.cycles
    /. float_of_int r.best.outcome.Eval.cycles

let run s ~machine ~program_name program =
  let ctx =
    {
      s;
      machine;
      program;
      memo = Hashtbl.create 128;
      sim_memo = (if s.memo then Some (Memo.create ()) else None);
      sims = 0;
      budgeted = 0;
      hits = 0;
      trials_rev = [];
    }
  in
  let baseline_pt = Space.canonical (Space.default_point ()) in
  let baseline =
    (* evaluated outside the budget: the default cost must always be
       known for the tuned-vs-default comparison *)
    match eval_batch ctx ~ignore_budget:true [ baseline_pt ] with
    | [ (p, o) ] -> (p, o)
    | _ -> assert false
  in
  let best =
    match
      match s.strategy with
      | Grid -> run_grid ctx baseline
      | Descent -> run_descent ctx baseline
      | Halving -> run_halving ctx baseline
    with
    | Some b -> b
    | None -> baseline
  in
  let to_trial rung (point, outcome) =
    { point; outcome; rung; from_cache = false }
  in
  let trials = List.rev ctx.trials_rev in
  let find_trial (p, o) =
    match
      List.find_opt
        (fun t ->
          t.rung = None && Space.equal t.point p
          && Eval.compare_outcome t.outcome o = 0)
        trials
    with
    | Some t -> t
    | None -> to_trial None (p, o)
  in
  let verify_ok =
    if s.verify then
      let params = Space.params_of ~base:s.base_params (fst best) in
      let compiled =
        Mapping.compile ~params (fst best).Space.scheme ~machine program
      in
      Some (Ctam_verify.Verify.ok (Ctam_verify.Verify.check compiled))
    else None
  in
  {
    program_name;
    machine_name = machine.Topology.name;
    strategy_used = s.strategy;
    baseline = find_trial baseline;
    best = find_trial best;
    trials;
    simulations = ctx.sims;
    cache_hits = ctx.hits;
    verify_ok;
  }

let trial_to_json t =
  J.Obj
    [
      ("point", Space.to_json t.point);
      ("outcome", Eval.outcome_to_json t.outcome);
      ("rung", match t.rung with None -> J.Null | Some c -> J.Int c);
      ("from_cache", J.Bool t.from_cache);
    ]

let to_json r =
  J.Obj
    [
      ("ctam_tune_version", J.Int 1);
      ("version", J.String Ctam_exp.Build_info.version);
      ("program", J.String r.program_name);
      ("machine", J.String r.machine_name);
      ("strategy", J.String (strategy_id r.strategy_used));
      ("baseline", trial_to_json r.baseline);
      ("best", trial_to_json r.best);
      (* best/default cycle ratio, <= 1.0, higher is worse — same
         orientation as the bench tables' "vs Base" column *)
      ( "tuned_vs_default",
        J.Float
          (if r.baseline.outcome.Eval.cycles <= 0 then 1.0
           else
             float_of_int r.best.outcome.Eval.cycles
             /. float_of_int r.baseline.outcome.Eval.cycles) );
      ("simulations", J.Int r.simulations);
      ("cache_hits", J.Int r.cache_hits);
      ( "verify_ok",
        match r.verify_ok with None -> J.Null | Some b -> J.Bool b );
      ("trials", J.List (List.map trial_to_json r.trials));
    ]

let best_params_json r = Space.to_json r.best.point

let render r =
  let b = Buffer.create 512 in
  let pt p = Fmt.str "%a" Space.pp p in
  Buffer.add_string b
    (Printf.sprintf "tune %s on %s (%s): %d trial(s), %d simulated, %d cached\n"
       r.program_name r.machine_name
       (strategy_id r.strategy_used)
       (List.length r.trials) r.simulations r.cache_hits);
  Buffer.add_string b
    (Printf.sprintf "  default: %-48s %10d cycles %8d mem\n"
       (pt r.baseline.point) r.baseline.outcome.Eval.cycles
       r.baseline.outcome.Eval.mem_accesses);
  Buffer.add_string b
    (Printf.sprintf "  best:    %-48s %10d cycles %8d mem\n" (pt r.best.point)
       r.best.outcome.Eval.cycles r.best.outcome.Eval.mem_accesses);
  Buffer.add_string b
    (Printf.sprintf "  speedup over default: %.3fx%s\n" (improvement r)
       (match r.verify_ok with
       | Some true -> "  (mapping verified)"
       | Some false -> "  (VERIFY FAILED)"
       | None -> ""));
  Buffer.contents b
