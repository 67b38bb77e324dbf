(* Self-tests of the benchmark's own code: percentile selection, the
   seeded generators, the parsers for the server's rendered tables and
   control text, counter-delta validity, and the independent oracles the
   workloads check the program against. *)

open Perfbench
open Common

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let () =
  serve_calibration_if_asked ();
  (* percentiles: median, nearest rank and the sample-count rule *)
  check "median odd" (median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  check "median empty" (Float.is_nan (median []));
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "nearest rank p90" (nearest_rank a 0.9 = 90.0);
  check "nearest rank p100" (nearest_rank a 1.0 = 100.0);
  check "no tail below 40 samples" (tail_percentile 39 = None);
  check "p90 at 100 samples" (tail_percentile 100 = Some 0.9);
  check "p90 at 999 samples" (tail_percentile 999 = Some 0.9);
  check "p99 at 1000 samples" (tail_percentile 1000 = Some 0.99);
  check "p99.9 at 10000 samples" (tail_percentile 10000 = Some 0.999);
  check "label" (percentile_label 0.999 = "p999" && percentile_label 0.9 = "p90");
  check "describe without tail" (describe_latencies [ 1.0; 2.0; 3.0 ] = "p50 2.000ms (n=3)");

  (* run figures: medians over five equal segments, so one slow segment
     moves neither the rate nor the latency medians *)
  let samples =
    Array.init 10 (fun i ->
        let slow = i >= 8 in
        { at_ms = (if slow then 100.0 +. (float_of_int (i - 7) *. 100.0) else float_of_int (i + 1) *. 10.0);
          ms = (if slow then 50.0 else 1.0 +. float_of_int (i mod 2)); write = i mod 2 = 1 })
  in
  let h at slow steal busy = { at; slow; steal; busy } in
  let f = run_figures ~t0:0.0 ~host:[ h 5.0 1.0 0 0 ] samples in
  check "segment rates" (List.map (fun (r, _, _) -> r) f.per_segment = [ 100.0; 100.0; 100.0; 100.0; 2.0 /. ((300.0 -. 80.0) /. 1000.0) ]);
  (* a segment sampled at half speed counts double *)
  let f2 = run_figures ~t0:0.0 ~host:[ h 5.0 2.0 0 0; h 25.0 2.0 0 0; h 45.0 2.0 0 0; h 65.0 1.0 0 0; h 90.0 1.0 0 0 ] samples in
  check "slowness scaling" (f2.ops_s = 200.0 && f2.read_p50 = 0.5 && f2.write_p50 = 1.0);
  check "segment median rate" (f.ops_s = 100.0);
  (* stolen processor time counts as slowness: a quarter stolen is 4/3 *)
  check "steal share" (steal_share (h 0.0 1.0 100 1000) (h 1.0 1.0 125 1075) = 0.25);
  check "steal share capped" (steal_share (h 0.0 1.0 0 0) (h 1.0 1.0 90 10) = 0.5);
  check "no counters, no steal" (steal_share (h 0.0 1.0 0 0) (h 1.0 1.0 0 0) = 0.0);
  check "slowness with steal" (slowness [ h 2.0 1.5 125 1075; h 1.0 1.5 100 1000 ] = 2.0);
  (* a phase with half its processor time stolen: twice the rate, same medians *)
  let f3 = run_figures ~t0:0.0 ~host:[ h 1.0 1.0 0 0; h 300.0 1.0 50 50 ] samples in
  check "steal scales rates, not medians" (f3.ops_s = 200.0 && f3.read_p50 = 1.0 && f3.write_p50 = 2.0);
  check "cpu line" (parse_cpu_line "cpu  1026914 0 54357 9056076 36004 0 14354 80734 0 0" = (80734, 1026914 + 54357 + 14354));
  check "bad cpu line" (parse_cpu_line "intr 1 2 3" = (0, 0));
  check "segment latency medians" (f.read_p50 = 1.0 && f.write_p50 = 2.0);

  (* seeded generators are deterministic and seed-dependent *)
  let draws seed = let r = Rng.make seed 7 in List.init 50 (fun _ -> Rng.int r 1000) in
  check "rng determinism" (draws 5 = draws 5);
  check "rng seeds differ" (draws 5 <> draws 6);
  let z = Zipf.make ~n:1000 ~theta:0.99 in
  let zdraws seed = let r = Rng.make seed 1 in List.init 2000 (fun _ -> Zipf.draw z r) in
  check "zipf determinism" (zdraws 3 = zdraws 3);
  let d = zdraws 3 in
  check "zipf range" (List.for_all (fun k -> k >= 0 && k < 1000) d);
  let hot = List.length (List.filter (fun k -> k < 10) d) in
  check "zipf skew" (hot > 500 && hot < 1200);
  let r = Rng.make 9 9 in
  let floats = List.init 1000 (fun _ -> Rng.float r) in
  check "rng float range" (List.for_all (fun x -> x >= 0.0 && x < 1.0) floats);
  (* template generators *)
  let gene_seqs seed = let r = Rng.make seed 11 in List.init 20 (fun _ -> Curation.random_gene r) in
  check "gene generator determinism" (gene_seqs 4 = gene_seqs 4);
  check "generated genes translate" (List.for_all (fun g -> Curation.translate g <> None) (gene_seqs 4));
  let analytics seed = Analytics.generate ~seed ~rounds:2 in
  check "analytics data determinism" ((analytics 8).Analytics.genes = (analytics 8).Analytics.genes);
  let queries seed =
    let data = analytics seed and r = Rng.make seed 103 in
    List.map (fun t -> (Analytics.make_query data r t).Analytics.sql) Analytics.round_templates
  in
  check "analytics templates determinism" (queries 8 = queries 8);
  check "analytics templates seed-dependent" (queries 8 <> queries 9);

  (* rendered result tables *)
  let t =
    parse_table
      "GID | GName\ng1 | n1\n    @GName [ann1 comment@t2 by admin] checked\n    @GName [ann2 comment@t3 by admin] again\ng2 | n2\n(2 rows)\n"
  in
  (match t with
  | Ok { header; rows } ->
      check "table header" (header = [ "GID"; "GName" ]);
      check "table rows" (List.map fst rows = [ [ "g1"; "n1" ]; [ "g2"; "n2" ] ]);
      check "table annotations" (List.map (fun (_, a) -> List.length a) rows = [ 2; 0 ])
  | Error e -> check ("table parse: " ^ e) false);
  check "empty table" (match parse_table "row | column\n(0 rows)\n" with Ok { rows = []; _ } -> true | _ -> false);
  check "row count mismatch rejected" (Result.is_error (parse_table "k\na\n(2 rows)\n"));
  check "missing footer rejected" (Result.is_error (parse_table "k\na\n"));

  (* stats and metrics control text *)
  let kv = parse_kv "reads=0 writes=12 allocs=4 root_swaps=3 wal_flushes=3\n" in
  check "stats parse" (List.assoc "writes" kv = 12.0 && List.assoc "root_swaps" kv = 3.0 && List.length kv = 5);
  let mt =
    parse_metrics
      "# HELP bdbms_stmt_ns Statement execution latency (ns)\n# TYPE bdbms_stmt_ns summary\nbdbms_stmt_ns{quantile=\"0.5\"} 47104\nbdbms_stmt_ns_count 3\nbdbms_stmt_ns_sum 270848\nbdbms_degraded 0\n"
  in
  check "metrics parse" (List.assoc "bdbms_stmt_ns_sum" mt = 270848.0 && List.assoc "bdbms_stmt_ns_count" mt = 3.0);
  check "metrics labels kept" (List.mem_assoc "bdbms_stmt_ns{quantile=\"0.5\"}" mt);

  (* counter deltas: a counter that goes down invalidates the set *)
  (match counter_deltas ~before:[ ("a", 1.0); ("b", 5.0) ] ~after:[ ("a", 4.0); ("b", 5.0) ] with
  | Ok d -> check "delta values" (get d "a" = 3.0 && get d "b" = 0.0)
  | Error _ -> check "delta valid" false);
  check "delta reset detected"
    (counter_deltas ~before:[ ("writes", 100.0); ("hits", 7.0) ] ~after:[ ("writes", 3.0); ("hits", 9.0) ] = Error [ "writes" ]);

  (* span parsing for the trace join *)
  let spans =
    Wire.parse_spans
      "[{\"name\":\"parse\",\"id\":2,\"parent\":1,\"depth\":1,\"start_ns\":1792306123142119936,\"dur_ns\":3072,\"trace_id\":22},{\"name\":\"session#1(admin).request\",\"id\":1,\"parent\":0,\"depth\":0,\"start_ns\":1792306123142098944,\"dur_ns\":723968,\"trace_id\":0}]"
  in
  check "span parse"
    (List.map (fun (s : Wire.span) -> (s.id, s.name, s.trace_id, s.dur_ns)) spans
    = [ (2, "parse", 22, 3072); (1, "session#1(admin).request", 0, 723968) ]);

  (* the independent oracles *)
  check "translate" (Curation.translate "ATGAAATGGTGA" = Some "MKW");
  check "translate stops" (Curation.translate "ATGTAAAAA" = Some "M");
  check "translate needs ATG" (Curation.translate "TTGAAATAA" = None);
  check "molecular weight" (Float.abs (Curation.mol_weight "MKW" -. 463.6) < 0.01);
  check "regex literal/class/star" (Seqindex.regex_match "JW[0-3].*A" "JW2999A");
  check "regex class miss" (not (Seqindex.regex_match "JW[0-3].*A" "JW7999A"));
  check "regex anchored" (not (Seqindex.regex_match "JW[0-3].*A" "JW2999AB"));
  check "sbc single-run semantics"
    (Seqindex.sbc_expected [| "HHHHEHH" |] 1 "HH" = [ (0, 0); (0, 5) ]);
  check "sbc multi-run semantics" (Seqindex.sbc_expected [| "HHEHHE" |] 1 "HE" = [ (0, 1); (0, 4) ]);

  (* the calibration loop runs in a child process and answers each sample *)
  let samples = List.init 3 (fun _ -> (host_sample ()).slow) in
  check "calibrator answers" (List.for_all (fun s -> s > 0.0 && Float.is_finite s) samples);
  stop_calibrator ();
  check "calibrator stopped" (!calibrator = None);

  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "perfbench self-tests: ok"
