module J = Ctam_util.Json

let seconds =
  Metrics.Histogram.v ~labels:[ "phase" ]
    ~help:"Wall-clock seconds per compiler/simulator pipeline phase"
    "ctam_phase_seconds"

let minor_words =
  Metrics.Counter.v ~labels:[ "phase" ]
    ~help:"Minor-heap words allocated inside each phase"
    "ctam_phase_minor_words_total"

let major_words =
  Metrics.Counter.v ~labels:[ "phase" ]
    ~help:"Major-heap words allocated inside each phase"
    "ctam_phase_major_words_total"

let gc_json () =
  let s = Gc.quick_stat () in
  J.Obj
    [
      ("minor_words", J.Float s.Gc.minor_words);
      ("major_words", J.Float s.Gc.major_words);
      ("promoted_words", J.Float s.Gc.promoted_words);
      ("minor_collections", J.Int s.Gc.minor_collections);
      ("major_collections", J.Int s.Gc.major_collections);
      ("heap_words", J.Int s.Gc.heap_words);
      ("compactions", J.Int s.Gc.compactions);
    ]

let gc_delta_json (a : Gc.stat) (b : Gc.stat) =
  J.Obj
    [
      ("minor_words", J.Float (b.Gc.minor_words -. a.Gc.minor_words));
      ("major_words", J.Float (b.Gc.major_words -. a.Gc.major_words));
      ("promoted_words", J.Float (b.Gc.promoted_words -. a.Gc.promoted_words));
      ( "minor_collections",
        J.Int (b.Gc.minor_collections - a.Gc.minor_collections) );
      ( "major_collections",
        J.Int (b.Gc.major_collections - a.Gc.major_collections) );
      ("heap_words", J.Int b.Gc.heap_words);
    ]

let snapshot_json ?(registry = Metrics.default) ~version ~telemetry_version ()
    =
  J.Obj
    [
      ("ctam_metrics_version", J.Int telemetry_version);
      ("version", J.String version);
      ("gc", gc_json ());
      ("metrics", Metrics.to_json registry);
    ]

let write_snapshot ?registry ~version ~telemetry_version path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (J.to_string (snapshot_json ?registry ~version ~telemetry_version ()));
      output_char oc '\n')
