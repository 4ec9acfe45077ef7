type t = {
  on_access : core:int -> addr:int -> line:int -> write:bool -> unit;
  on_level : core:int -> level:int -> set:int -> line:int -> hit:bool -> unit;
  on_mem : core:int -> line:int -> unit;
  on_evict : core:int -> level:int -> line:int -> unit;
  on_invalidate : core:int -> level:int -> line:int -> unit;
  on_retire : core:int -> cycles:int -> unit;
  on_phase_start : phase:int -> unit;
  on_phase_end : phase:int -> cycles:int -> unit;
  on_barrier_enter : phase:int -> cycles:int -> unit;
  on_barrier_exit : phase:int -> cycles:int -> unit;
}

let null =
  {
    on_access = (fun ~core:_ ~addr:_ ~line:_ ~write:_ -> ());
    on_level = (fun ~core:_ ~level:_ ~set:_ ~line:_ ~hit:_ -> ());
    on_mem = (fun ~core:_ ~line:_ -> ());
    on_evict = (fun ~core:_ ~level:_ ~line:_ -> ());
    on_invalidate = (fun ~core:_ ~level:_ ~line:_ -> ());
    on_retire = (fun ~core:_ ~cycles:_ -> ());
    on_phase_start = (fun ~phase:_ -> ());
    on_phase_end = (fun ~phase:_ ~cycles:_ -> ());
    on_barrier_enter = (fun ~phase:_ ~cycles:_ -> ());
    on_barrier_exit = (fun ~phase:_ ~cycles:_ -> ());
  }

let is_null p = p == null
