open Ctam_cachesim

type conflict = {
  c_phase : int;
  c_addr : int;
  c_core : int;
  c_other : int;
  c_write : bool;
}

(* Per-address state within the current phase: [owner] is the first
   core seen, [mixed] records whether any *other* core also touched the
   address, and [writer] the first writing core.  That is enough to
   decide every conflict: a write races with any earlier access from a
   different core; a read races with any earlier write from a different
   core. *)
type cell = {
  owner : int;
  mutable second : int;  (* first core <> owner to touch it, or -1 *)
  mutable writer : int option;
}

let detail_cap = 32

type t = {
  mutable phase : int;
  table : (int, cell) Hashtbl.t;
  mutable found : conflict list;  (* newest first, capped *)
  mutable count : int;
}

let create () =
  { phase = 0; table = Hashtbl.create 4096; found = []; count = 0 }

let record t conflict =
  t.count <- t.count + 1;
  if t.count <= detail_cap then t.found <- conflict :: t.found

let access t ~core ~addr ~write =
  match Hashtbl.find_opt t.table addr with
  | None ->
      Hashtbl.add t.table addr
        { owner = core; second = -1; writer = (if write then Some core else None) }
  | Some cell ->
      let other_seen = cell.second >= 0 || cell.owner <> core in
      let conflict_with other =
        record t
          { c_phase = t.phase; c_addr = addr; c_core = core; c_other = other;
            c_write = write }
      in
      (if write && other_seen then
         (* Some earlier access came from another core. *)
         conflict_with (if cell.owner <> core then cell.owner else cell.second)
       else
         match cell.writer with
         | Some w when w <> core -> conflict_with w
         | _ -> ());
      if cell.owner <> core && cell.second < 0 then cell.second <- core;
      if write && cell.writer = None then cell.writer <- Some core

let phase_start t phase =
  Hashtbl.reset t.table;
  t.phase <- phase

let probe t =
  {
    Probe.null with
    Probe.on_access = (fun ~core ~addr ~line:_ ~write -> access t ~core ~addr ~write);
    on_phase_start = (fun ~phase -> phase_start t phase);
  }

let replay t phases =
  List.iteri
    (fun i phase ->
      phase_start t i;
      Array.iteri
        (fun core stream ->
          Array.iter
            (fun enc ->
              Ctam_util.Deadline.tick ();
              let addr, write = Engine.decode_access enc in
              access t ~core ~addr ~write)
            stream)
        phase)
    phases

let conflicts t = List.rev t.found
let num_conflicts t = t.count

let pp_conflict ppf c =
  Fmt.pf ppf "phase %d: %s of address %d by core %d races with core %d"
    c.c_phase
    (if c.c_write then "write" else "read")
    c.c_addr c.c_core c.c_other
