(* Benchmark entry point: runs one named workload with a seed and prints
   a human-readable report followed, as the last line, by one JSON object:
   the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
   the operations attempted and failed, and whether every answer matched
   the independent computation.

     bench.exe --workload curation|analytics|sequence_index --seed N
               --seconds S --trace 0|1 --serve PATH/bdbms_serve.exe

   --seconds fixes the amount of work (operations per second of the
   reference machine times S), never a deadline: a run always does the
   same seeded operations whatever the clock says.  Database files go to
   .perfbench/ under the current directory. *)

open Perfbench
open Common

(* every per-layer metric, in the order BENCHMARK.json lists them; a layer
   a workload does not use reports 0 *)
let all_layers =
  [
    ("wire.overhead_ms_mean", "ms"); ("wire.frames_per_op", "count"); ("server.request_ms_mean", "ms");
    ("engine.group_commits_per_txn", "count"); ("engine.conflicts", "count"); ("asql.stmt_ms_mean", "ms");
    ("asql.tuples_decoded_per_op", "count"); ("asql.batches_decoded_per_op", "count");
    ("asql.batch_fallbacks_per_op", "count"); ("asql.hash_probes_per_op", "count");
    ("asql.index_probes_per_op", "count"); ("annotation.envelopes_per_op", "count");
    ("catalog.root_swaps_per_op", "count"); ("catalog.root_swap_ms_per_op", "ms"); ("wal.flushes_per_op", "count");
    ("wal.appends_per_op", "count"); ("wal.flush_ms_per_op", "ms"); ("pager.hit_ratio", "ratio");
    ("pager.page_ins_per_op", "count"); ("pager.evictions_per_op", "count"); ("pager.writebacks_per_op", "count");
    ("pager.pages_written_per_op", "count"); ("pager.forced_wal_flushes_per_op", "count");
    ("pager.evict_writeback_ms_per_op", "ms"); ("sbc.search_ms_mean", "ms"); ("sbc.page_accesses_per_search", "count");
    ("sbc.insert_ms_mean", "ms"); ("sbc.page_accesses_per_insert", "count"); ("spgist.trie_ms_mean", "ms");
    ("spgist.trie_page_accesses_per_op", "count"); ("spgist.kd_ms_mean", "ms");
    ("spgist.kd_page_accesses_per_op", "count"); ("trace.wire_self_ms", "ms"); ("trace.request_self_ms", "ms");
    ("trace.stmt_self_ms", "ms"); ("trace.root_swap_self_ms", "ms"); ("trace.wal_flush_self_ms", "ms");
    ("trace.ops_s_traced", "1/s"); ("trace.ops_s_untraced", "1/s"); ("trace.overhead_ratio", "ratio");
    ("trace.spans_lost", "count");
  ]

let complete_layers (r : result) =
  if r.layers = [] then r
  else
    let find name = List.find_opt (fun x -> x.name = name) r.layers in
    {
      r with
      layers = List.map (fun (name, u) -> match find name with Some x -> x | None -> m name u 0.0) all_layers;
    }

let usage () =
  prerr_endline
    "usage: bench.exe --workload curation|analytics|sequence_index --seed N --seconds S --trace 0|1 --serve PATH";
  exit 2

let () =
  serve_calibration_if_asked ();
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref 0 in
  let serve = ref "" and workdir = ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " amount of work, in seconds of the reference machine");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--serve", Arg.Set_string serve, " path of bdbms_serve.exe");
    ]
    (fun _ -> usage ())
    "bench.exe";
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  if not (Sys.file_exists workdir) then Unix.mkdir workdir 0o755;
  let needs_server () =
    if !serve = "" || not (Sys.file_exists !serve) then begin
      prerr_endline "bench: --serve must name a built bdbms_serve.exe";
      exit 2
    end
  in
  let r =
    match !workload with
    | "curation" ->
        needs_server ();
        Curation.run ~serve:!serve ~workdir ~seed:!seed ~seconds:!seconds ~trace
    | "analytics" ->
        needs_server ();
        Analytics.run ~serve:!serve ~workdir ~seed:!seed ~seconds:!seconds ~trace
    | "sequence_index" -> Seqindex.run ~seed:!seed ~seconds:!seconds ~trace
    | _ -> usage ()
  in
  stop_calibrator ();
  let r = complete_layers r in
  List.iter print_endline r.report;
  print_endline "end-to-end:";
  List.iter (fun x -> Printf.printf "  %-24s %12.4f %s\n" x.name x.value x.unit_) r.e2e;
  if r.layers <> [] then begin
    print_endline "per-layer:";
    List.iter (fun x -> Printf.printf "  %-34s %12.4f %s\n" x.name x.value x.unit_) r.layers
  end;
  print_endline (result_json r ~trace);
  (try Unix.rmdir workdir with Unix.Unix_error _ -> ())
