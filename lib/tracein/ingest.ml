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

(* Shared per-pass parse state: the counting pass and every per-core
   cursor each run their own copy over the whole input, so round-robin
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

(* --- per-core cursors -------------------------------------------------- *)

let chunk_size = 4096

type cursor_state = {
  mutable chan : Reader.chan option;
  mutable st : line_state;
  buf : int array;
  mutable len : int;
  (* Accesses of the line that overflowed the chunk, issue order. *)
  mutable spill : int list;
  mutable eof : bool;
}

let make_cursor opts src ~core ~length ~base ~mask : Engine.cursor =
  let cs =
    {
      chan = None;
      st = fresh_state opts;
      buf = Array.make chunk_size 0;
      len = 0;
      spill = [];
      eof = false;
    }
  in
  let push e =
    if cs.len < chunk_size then begin
      cs.buf.(cs.len) <- e;
      cs.len <- cs.len + 1
    end
    else cs.spill <- e :: cs.spill
  in
  let emit_access addr write =
    push (Engine.encode_access ~addr:((addr - base) land mask) ~write)
  in
  let emit f c write =
    if c = core then emit_span opts f ~emit:emit_access write
  in
  let close_chan () =
    match cs.chan with
    | Some c ->
        Reader.close c;
        cs.chan <- None
    | None -> ()
  in
  (* The engine refills only while the scanned count says accesses
     remain, so an input that ends first was changed since the scan. *)
  let refill () =
    cs.len <- 0;
    (* A split record can spill more than a chunk: what does not fit
       again spills afresh. *)
    let spilled = List.rev cs.spill in
    cs.spill <- [];
    List.iter push spilled;
    if not cs.eof then begin
      let chan =
        match cs.chan with
        | Some c -> c
        | None ->
            let c = Reader.open_source src in
            cs.chan <- Some c;
            c
      in
      while (not cs.eof) && cs.len < chunk_size do
        if Reader.next chan then
          process opts cs.st ~check_times:false ~emit (Reader.line_buf chan)
            (Reader.line_pos chan) (Reader.line_len chan)
        else begin
          cs.eof <- true;
          close_chan ()
        end
      done
    end;
    if cs.len = 0 then
      fail "trace cursor pulled past end of stream (core %d)" core;
    (cs.buf, cs.len)
  in
  let reset () =
    close_chan ();
    cs.st <- fresh_state opts;
    cs.spill <- [];
    cs.eof <- false
  in
  { Engine.length; reset; refill }

let streams ?scan:sc opts src =
  validate opts;
  let sc = match sc with Some s -> s | None -> scan opts src in
  let base = if opts.rebase then sc.min_addr else 0 in
  let mask =
    match opts.fold_bits with Some b -> (1 lsl b) - 1 | None -> max_int
  in
  Array.init opts.cores (fun core ->
      Engine.Gen
        (make_cursor opts src ~core ~length:sc.per_core.(core) ~base ~mask))

let load ?scan opts src = Array.map Engine.force_stream (streams ?scan opts src)

(* --- running a trace on a machine -------------------------------------- *)

let run ?(config = Engine.default_config) ?(sample_sets = 1) ~machine opts src
    =
  validate opts;
  let n = machine.Topology.num_cores in
  if opts.cores > n then
    fail "trace interleaved over %d cores but machine %s has only %d"
      opts.cores machine.Topology.name n;
  let sc = scan opts src in
  let strs = streams ~scan:sc opts src in
  (* Idle cores of the machine run empty streams. *)
  let padded =
    Array.init n (fun i ->
        if i < Array.length strs then strs.(i) else Engine.dense [||])
  in
  let h = Hierarchy.create ~sample_sets machine in
  let stats = Engine.run_streams ~config h [ padded ] in
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
