module Engine = Ctam_cachesim.Engine
module Hierarchy = Ctam_cachesim.Hierarchy
module Stats = Ctam_cachesim.Stats
module Topology = Ctam_arch.Topology
module Policy = Ctam_arch.Policy
module Json = Ctam_util.Json

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type interleave = Round_robin | Tagged

let interleave_to_string = function
  | Round_robin -> "round-robin"
  | Tagged -> "tagged"

type options = {
  cores : int;
  instr : bool;
  lossy : bool;
  fold_bits : int option;
  rebase : bool;
  split : int option;
  interleave : interleave;
}

let default =
  {
    cores = 1;
    instr = false;
    lossy = false;
    fold_bits = None;
    rebase = false;
    split = None;
    interleave = Round_robin;
  }

let validate opts =
  if opts.cores < 1 then fail "cores must be >= 1 (got %d)" opts.cores;
  (match opts.fold_bits with
  | Some b when b < 1 || b > 60 -> fail "fold bits must be in 1..60 (got %d)" b
  | _ -> ());
  match opts.split with
  | Some l when l < 1 -> fail "split granularity must be >= 1 (got %d)" l
  | _ -> ()

(* Shared per-pass parse state: the counting pass and every reader
   each run their own copy over the whole input, so round-robin
   dealing and lossy counting come out identical in both. *)
type line_state = {
  mutable rr : int;
  mutable lines : int;  (* also the current line's number *)
  mutable records : int;
  mutable malformed : int;
  last_time : int array;  (* per core; -1 = none seen *)
  fields : Lackey.fields;
}

let fresh_state opts =
  {
    rr = 0;
    lines = 0;
    records = 0;
    malformed = 0;
    last_time = Array.make opts.cores (-1);
    fields = Lackey.fields ();
  }

let malformed opts st msg =
  if opts.lossy then st.malformed <- st.malformed + 1
  else fail "line %d: %s" st.lines msg

let max_split_lines = 65536

(* The accesses of one record, in issue order: with [split], one per
   [split]-byte line its [addr, addr+size) span touches (the first
   keeps the record's address); else its base address alone.  Every
   one after the first is a line start above [addr], so [addr] is the
   lowest address and [span_last] the highest. *)
let span_lines opts (f : Lackey.fields) =
  match opts.split with
  | None -> 1
  | Some l -> ((f.addr + f.size - 1) / l) - (f.addr / l) + 1

let span_last opts (f : Lackey.fields) =
  match opts.split with
  | None -> f.addr
  | Some l -> max f.addr ((f.addr + f.size - 1) / l * l)

(* [emit addr write] for each access of one record. *)
let emit_span opts (f : Lackey.fields) ~emit write =
  emit f.addr write;
  match opts.split with
  | None -> ()
  | Some l ->
      for i = (f.addr / l) + 1 to (f.addr + f.size - 1) / l do
        emit (i * l) write
      done

(* One line of a pass: count it and hand each access span of its
   record to [emit fields core write] (a modify is a read span, then a
   write span).  Noise, dropped instruction fetches and (lossy mode)
   malformed lines emit nothing.  A split record that overflows the
   address space or covers more than [max_split_lines] lines is
   malformed, so no pass ever expands one. *)
let process opts st ~check_times ~emit b pos len =
  st.lines <- st.lines + 1;
  Ctam_util.Deadline.tick ();
  let f = st.fields in
  match Lackey.parse f b pos len with
  | Lackey.Noise -> ()
  | Lackey.Malformed msg -> malformed opts st msg
  | Lackey.Record
    when Option.is_some opts.split && f.addr > max_int - f.size + 1 ->
      malformed opts st
        (Printf.sprintf "%d-byte span at 0x%x overflows the address space"
           f.size f.addr)
  | Lackey.Record when span_lines opts f > max_split_lines ->
      malformed opts st
        (Printf.sprintf
           "%d-byte span at 0x%x covers %d split lines (at most %d)" f.size
           f.addr (span_lines opts f) max_split_lines)
  | Lackey.Record -> (
      st.records <- st.records + 1;
      match f.kind with
      | Lackey.Instr when not opts.instr -> ()
      | kind ->
          let core =
            match opts.interleave with
            | Round_robin ->
                let c = st.rr mod opts.cores in
                st.rr <- st.rr + 1;
                c
            | Tagged ->
                if f.core < 0 then 0
                else if f.core < opts.cores then f.core
                else if opts.lossy then -1
                else
                  fail "line %d: core tag %d out of range (cores = %d)"
                    st.lines f.core opts.cores
          in
          if core < 0 then st.malformed <- st.malformed + 1
          else begin
            (match opts.interleave with
            | Tagged when check_times && f.time >= 0 ->
                if f.time < st.last_time.(core) && not opts.lossy then
                  fail "line %d: timestamp %d goes backwards for core %d"
                    st.lines f.time core;
                st.last_time.(core) <- max f.time st.last_time.(core)
            | _ -> ());
            match kind with
            | Lackey.Instr | Lackey.Load -> emit f core false
            | Lackey.Store -> emit f core true
            | Lackey.Modify ->
                emit f core false;
                emit f core true
          end)

type scan = {
  scanned_lines : int;
  records : int;
  malformed : int;
  per_core : int array;
  min_addr : int;
  max_addr : int;  (* -1 when the trace has no accesses *)
}

let scan opts src =
  validate opts;
  let st = fresh_state opts in
  let per_core = Array.make opts.cores 0 in
  let min_a = ref max_int and max_a = ref (-1) in
  (* A span is counted, not expanded: O(1) whatever its length. *)
  let emit (f : Lackey.fields) core _ =
    per_core.(core) <- per_core.(core) + span_lines opts f;
    if f.addr < !min_a then min_a := f.addr;
    let last = span_last opts f in
    if last > !max_a then max_a := last
  in
  let ch = Reader.open_source src in
  Fun.protect
    ~finally:(fun () -> Reader.close ch)
    (fun () ->
      while Reader.next ch do
        process opts st ~check_times:true ~emit (Reader.line_buf ch)
          (Reader.line_pos ch) (Reader.line_len ch)
      done);
  {
    scanned_lines = st.lines;
    records = st.records;
    malformed = st.malformed;
    per_core;
    min_addr = (if !min_a = max_int then 0 else !min_a);
    max_addr = !max_a;
  }

(* --- the replay: per-core cursors over shared readers ------------------ *)

let chunk_size = 4096
let queue_budget = 1 lsl 18

(* A reader is one handle on the source, opened at its first line and
   closed at the end of its input or with its last member core. *)
type input = Unread | Open of Reader.chan * line_state | Ended
type reader = { mutable input : input; mutable members : int }

type core = {
  length : int;
  mutable rd : reader;
  mutable buf : int array;  (* the handed-out chunk; [||] until a refill *)
  mutable q : int array;  (* dealt, not handed out: [q.(hd) .. q.(tl-1)] *)
  mutable hd : int;
  mutable tl : int;
  mutable taken : int;  (* handed out since the last reset *)
  mutable skip : int;  (* of those, the ones a re-reading reader drops *)
}

(* The cursors of one replay ([streams] in the interface).  Only a core
   with accesses left to hand out holds a reader open. *)
let cursors ?scan:sc opts src =
  validate opts;
  let sc = match sc with Some s -> s | None -> scan opts src in
  let base = if opts.rebase then sc.min_addr else 0 in
  let mask =
    match opts.fold_bits with Some b -> (1 lsl b) - 1 | None -> max_int
  in
  let unread () = { input = Unread; members = 0 } in
  let fresh = ref (unread ()) in
  let cores =
    Array.init opts.cores (fun c ->
        let length = sc.per_core.(c) in
        let rd = if length > 0 then !fresh else unread () in
        rd.members <- rd.members + 1;
        { length; rd; buf = [||]; q = [||]; hd = 0; tl = 0; taken = 0;
          skip = 0 })
  in
  let queued = ref 0 and dealer = ref !fresh and target = ref 0 in
  let push addr write =
    let cs = cores.(!target) in
    if cs.skip > 0 then cs.skip <- cs.skip - 1
    else begin
      if cs.tl = Array.length cs.q then begin
        (* Compact in place while at most half is live, else double. *)
        let live = cs.tl - cs.hd in
        let q =
          if 2 * live < cs.tl then cs.q else Array.make (max 8 (2 * cs.tl)) 0
        in
        Array.blit cs.q cs.hd q 0 live;
        cs.q <- q;
        cs.hd <- 0;
        cs.tl <- live
      end;
      cs.q.(cs.tl) <-
        Engine.encode_access ~addr:((addr - base) land mask) ~write;
      cs.tl <- cs.tl + 1;
      incr queued
    end
  in
  let emit f c write =
    if cores.(c).rd == !dealer then begin
      target := c;
      emit_span opts f ~emit:push write
    end
  in
  let close r =
    (match r.input with Open (ch, _) -> Reader.close ch | _ -> ());
    r.input <- Ended
  in
  (* [cs] drops its queue and leaves its reader for [r]. *)
  let move cs r =
    queued := !queued - (cs.tl - cs.hd);
    cs.q <- [||];
    cs.hd <- 0;
    cs.tl <- 0;
    cs.rd.members <- cs.rd.members - 1;
    if cs.rd.members = 0 then close cs.rd;
    r.members <- r.members + 1;
    cs.rd <- r
  in
  (* Over the budget: the longest queue on [r] other than [self]'s. *)
  let evict r ~self =
    let len c =
      if c = self || cores.(c).rd != r then 0 else cores.(c).tl - cores.(c).hd
    in
    let v = ref 0 in
    Array.iteri (fun c _ -> if len c > len !v then v := c) cores;
    len !v > 0
    && begin
         move cores.(!v) (unread ());
         cores.(!v).skip <- cores.(!v).taken;
         true
       end
  in
  (* The engine refills only while the scanned count says accesses
     remain, so an input that ends first was changed since the scan. *)
  let refill self () =
    let cs = cores.(self) in
    let want = min chunk_size (cs.length - cs.taken) in
    while cs.tl - cs.hd < want && cs.rd.input != Ended do
      let r = cs.rd in
      match r.input with
      | Unread -> r.input <- Open (Reader.open_source src, fresh_state opts)
      | Open (ch, st) when Reader.next ch ->
          dealer := r;
          process opts st ~check_times:false ~emit (Reader.line_buf ch)
            (Reader.line_pos ch) (Reader.line_len ch);
          while !queued > queue_budget && evict r ~self do () done
      | _ -> close r
    done;
    let n = min want (cs.tl - cs.hd) in
    if n <= 0 then fail "trace cursor pulled past end of stream (core %d)" self;
    if Array.length cs.buf = 0 then
      cs.buf <- Array.make (min chunk_size cs.length) 0;
    Array.blit cs.q cs.hd cs.buf 0 n;
    cs.hd <- cs.hd + n;
    queued := !queued - n;
    cs.taken <- cs.taken + n;
    (* Done: leave the reader, which closes with its last member. *)
    if cs.taken = cs.length then move cs (unread ());
    (cs.buf, n)
  in
  let reset self () =
    let cs = cores.(self) in
    if !fresh.input <> Unread then fresh := unread ();
    if cs.length > 0 && cs.rd != !fresh then move cs !fresh;
    cs.taken <- 0;
    cs.skip <- 0
  in
  Array.mapi
    (fun c cs ->
      { Engine.length = cs.length; reset = reset c; refill = refill c })
    cores

let streams ?scan opts src =
  Array.map (fun c -> Engine.Gen c) (cursors ?scan opts src)

(* The cores take chunks in turn, so the trace is parsed once. *)
let load ?scan opts src =
  let curs = cursors ?scan opts src in
  Array.iter (fun (c : Engine.cursor) -> c.reset ()) curs;
  let out = Array.map (fun (c : Engine.cursor) -> Array.make c.length 0) curs in
  let filled = Array.make (Array.length curs) 0 in
  while Array.exists2 (fun (c : Engine.cursor) k -> k < c.length) curs filled do
    Array.iteri
      (fun i (c : Engine.cursor) ->
        if filled.(i) < c.length then begin
          let buf, n = c.refill () in
          let n = min n (c.length - filled.(i)) in
          Array.blit buf 0 out.(i) filled.(i) n;
          filled.(i) <- filled.(i) + n
        end)
      curs
  done;
  out

(* --- running a trace on a machine -------------------------------------- *)

let run ?(sample_sets = 1) ?scan:sc ~machine opts src =
  validate opts;
  let n = machine.Topology.num_cores in
  if opts.cores > n then
    fail "trace interleaved over %d cores but machine %s has only %d"
      opts.cores machine.Topology.name n;
  let sc = match sc with Some s -> s | None -> scan opts src in
  let strs = streams ~scan:sc opts src in
  (* Idle cores of the machine run empty streams. *)
  let padded =
    Array.init n (fun i ->
        if i < Array.length strs then strs.(i) else Engine.dense [||])
  in
  let h = Hierarchy.create ~sample_sets machine in
  let stats = Engine.run_streams h [ padded ] in
  (stats, sc)

let report_json ~machine opts sc stats =
  let opt_int = function Some v -> Json.Int v | None -> Json.Null in
  Json.Obj
    [
      ("schema", Json.String "ctam-simtrace-v1");
      ("machine", Json.String machine.Topology.name);
      ("cores", Json.Int opts.cores);
      ("interleave", Json.String (interleave_to_string opts.interleave));
      ("instr", Json.Bool opts.instr);
      ("lossy", Json.Bool opts.lossy);
      ("fold_bits", opt_int opts.fold_bits);
      ("rebase", Json.Bool opts.rebase);
      ("split", opt_int opts.split);
      ( "policies",
        Json.List
          (List.map
             (fun (p : Topology.cache_params) ->
               Json.Obj
                 [
                   ("cache", Json.String p.cache_name);
                   ("level", Json.Int p.level);
                   ("policy", Json.String (Policy.to_string p.policy));
                 ])
             (Topology.caches machine)) );
      ( "trace",
        Json.Obj
          [
            ("lines", Json.Int sc.scanned_lines);
            ("records", Json.Int sc.records);
            ("malformed", Json.Int sc.malformed);
            ("min_addr", Json.Int sc.min_addr);
            ("max_addr", Json.Int sc.max_addr);
            ( "per_core",
              Json.List
                (Array.to_list (Array.map (fun n -> Json.Int n) sc.per_core))
            );
          ] );
      ("stats", Stats.to_json stats);
    ]

let trace_formats =
  [
    ("lackey", "Valgrind Lackey: I/L/S/M ADDR,SIZE (bare hex or 0x)");
    ("bare", "R 0xADDR / W 0xADDR one access per line");
    ("tags", "optional CORE: prefix and @TIME suffix on any record");
  ]
