exception Expired

(* Per domain, like Telemetry.Log's context fields: the expiry as a
   Unix time ([infinity] when none is set) and the countdown every
   [tick] on the domain shares. *)
type state = { mutable expiry : float; mutable countdown : int }

let stride = 4096

let state =
  Domain.DLS.new_key (fun () -> { expiry = infinity; countdown = stride })

(* Scopes open on any domain.  A domain-local read costs several hot
   loop iterations; while no scope is open anywhere (the CLI, the
   benchmarks, an untimed daemon) a poll skips it. *)
let open_scopes = Atomic.make 0

let within ~ms f =
  let st = Domain.DLS.get state in
  let saved = st.expiry in
  st.expiry <- Float.min saved (Unix.gettimeofday () +. (float ms /. 1000.));
  Atomic.incr open_scopes;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr open_scopes;
      st.expiry <- saved)
    f

let check () =
  if Atomic.get open_scopes > 0 then begin
    let st = Domain.DLS.get state in
    if st.expiry < infinity && Unix.gettimeofday () >= st.expiry then
      raise Expired
  end

let tick () =
  if Atomic.get open_scopes > 0 then begin
    let st = Domain.DLS.get state in
    if st.expiry < infinity then begin
      st.countdown <- st.countdown - 1;
      if st.countdown <= 0 then begin
        st.countdown <- stride;
        if Unix.gettimeofday () >= st.expiry then raise Expired
      end
    end
  end
