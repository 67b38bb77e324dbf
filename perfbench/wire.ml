(* The wire side of the benchmark: a [bdbms_serve] child process and a
   thin closed-loop client over the public [Protocol] codec that times each
   request in three client-side spans (encode+send, wait, decode) and
   stamps its own trace id on every query, so the server's span ring can
   be joined to the client's view. *)

module P = Bdbms_server.Protocol
open Common

(* ----------------------------------------------------------- server *)

type server = { pid : int; sock : string; db : string; log_fd : Unix.file_descr }

let connectable path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ok = try Unix.connect fd (Unix.ADDR_UNIX path); true with Unix.Unix_error _ -> false in
  Unix.close fd;
  ok

(* Start [bdbms_serve] on [db] with a Unix socket in [dir]; one fsync per
   commit is the server's only flush policy.  Waits until the socket
   accepts connections. *)
let start ~serve ~dir ~db ~pool_pages =
  let sock = Filename.concat dir "s.sock" in
  let log_fd =
    Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [| serve; "--db"; db; "--unix"; sock; "--pool-pages"; string_of_int pool_pages; "--idle-timeout"; "0" |]
  in
  let pid = Unix.create_process serve args Unix.stdin log_fd log_fd in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    if Sys.file_exists sock && connectable sock then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith ("bdbms_serve did not come up; see " ^ Filename.concat dir "serve.log")
    end
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("bdbms_serve exited at start; see " ^ Filename.concat dir "serve.log"));
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  { pid; sock; db; log_fd }

(* Graceful stop: SIGTERM, then wait for the drain and checkpoint.
   Returns the server's peak resident set (MB), read just before. *)
let stop s =
  let rss = peak_rss_mb s.pid in
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] s.pid in
  Unix.close s.log_fd;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "bdbms_serve did not exit cleanly");
  rss

let kill_quiet s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  try Unix.close s.log_fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------ client *)

type conn = { fd : Unix.file_descr; mutable next_tid : int; session : int }

(* Client-side spans of one request, in ms. *)
type timing = {
  send_ms : float;
  wait_ms : float;
  decode_ms : float;
  total_ms : float;
  tid : int;
  session : int;
}

let connect s ~user ~tid_base =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX s.sock);
  P.send_request fd (P.Hello { user });
  let session =
    match P.recv_response fd with
    | Some (P.Hello_ok { proto; session }) when proto >= 2 -> session
    | Some (P.Hello_ok _) -> failwith "server speaks protocol < 2 (no trace ids)"
    | Some (P.Error_resp { message; _ }) -> failwith ("hello refused: " ^ message)
    | _ -> failwith "bad hello answer"
  in
  { fd; next_tid = tid_base; session }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec wait_readable fd =
  match Unix.select [ fd ] [] [] (-1.0) with
  | [], _, _ -> wait_readable fd
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd

let roundtrip c req ~tid =
  let t0 = now_ms () in
  P.send_request c.fd req;
  let t1 = now_ms () in
  wait_readable c.fd;
  let t2 = now_ms () in
  let resp =
    match P.recv_response c.fd with
    | Some r -> r
    | None -> failwith "server closed the connection"
  in
  let t3 = now_ms () in
  (resp, { send_ms = t1 -. t0; wait_ms = t2 -. t1; decode_ms = t3 -. t2; total_ms = t3 -. t0; tid; session = c.session })

let query c sql =
  c.next_tid <- c.next_tid + 1;
  let tid = c.next_tid in
  roundtrip c (P.Query { sql; timeout_ms = None; trace_id = tid }) ~tid

let control c name =
  match fst (roundtrip c (P.Control { name }) ~tid:0) with
  | P.Message { text } -> text
  | P.Error_resp { message; _ } -> failwith ("control " ^ name ^ ": " ^ message)
  | _ -> failwith ("control " ^ name ^ ": unexpected answer")

let response_error = function
  | P.Error_resp { message; _ } -> Some message
  | _ -> None

let response_text = function
  | P.Rows { rendered } -> rendered
  | P.Message { text } -> text
  | P.Count { affected; verb } -> Printf.sprintf "%d %s" affected verb
  | P.Committed { seq } -> Printf.sprintf "committed %d" seq
  | P.Hello_ok _ -> "hello"
  | P.Error_resp { message; _ } -> "error: " ^ message

(* Run a statement during set-up or checking; any error is fatal there. *)
let exec_exn c sql =
  setup_tick ();
  let resp, _ = query c sql in
  match response_error resp with
  | Some e -> failwith (Printf.sprintf "%s\n  -> %s" (if String.length sql > 200 then String.sub sql 0 200 ^ "..." else sql) e)
  | None -> resp

let rows_exn c sql =
  match exec_exn c sql with
  | P.Rows { rendered } -> (
      match parse_table rendered with
      | Ok t -> t
      | Error e -> failwith (Printf.sprintf "%s: unparsable table (%s)" sql e))
  | r -> failwith (Printf.sprintf "%s: expected rows, got %s" sql (response_text r))

(* -------------------------------------------------- layer counters *)

(* One reading of the server's counters: the canonical disk's I/O and
   engine counters ([stats]) and the latency histograms' sums and counts
   ([metrics]). *)
let read_counters c =
  let stats = parse_kv (control c "stats") in
  let metrics = parse_metrics (control c "metrics") in
  stats @ List.filter (fun (k, _) -> not (String.contains k '{')) metrics

(* Per-layer metrics from counter deltas over [ops] operations, plus the
   client's own latency sum for the wire layer.  Names follow the layer
   table in the README. *)
let layer_metrics d ~ops ~txns ~client_ms_sum =
  let per_op k = get d k /. float_of_int (max 1 ops) in
  let ms_per_op k = get d k /. 1e6 /. float_of_int (max 1 ops) in
  let mean_ms sum count = if get d count > 0.0 then get d sum /. 1e6 /. get d count else 0.0 in
  let req_ms = get d "bdbms_request_ns_sum" /. 1e6 in
  let hits = get d "hits" and ins = get d "page_ins" in
  [
    m "wire.overhead_ms_mean" "ms" ((client_ms_sum -. req_ms) /. float_of_int (max 1 ops));
    m "wire.frames_per_op" "count" ((get d "frames_rx" +. get d "frames_tx") /. float_of_int (max 1 ops));
    m "server.request_ms_mean" "ms" (mean_ms "bdbms_request_ns_sum" "bdbms_request_ns_count");
    m "engine.group_commits_per_txn" "count"
      (if txns > 0 then get d "group_commits" /. float_of_int txns else 0.0);
    m "engine.conflicts" "count" (get d "commit_conflicts");
    m "asql.stmt_ms_mean" "ms" (mean_ms "bdbms_stmt_ns_sum" "bdbms_stmt_ns_count");
    m "asql.tuples_decoded_per_op" "count" (per_op "tuples_decoded");
    m "asql.batches_decoded_per_op" "count" (per_op "batches_decoded");
    m "asql.batch_fallbacks_per_op" "count" (per_op "batch_fallbacks");
    m "asql.hash_probes_per_op" "count" (per_op "hash_probes");
    m "asql.index_probes_per_op" "count" (per_op "index_probes");
    m "annotation.envelopes_per_op" "count" (per_op "ann_envelopes");
    m "catalog.root_swaps_per_op" "count" (per_op "root_swaps");
    m "catalog.root_swap_ms_per_op" "ms" (ms_per_op "bdbms_root_swap_ns_sum");
    m "wal.flushes_per_op" "count" (per_op "wal_flushes");
    m "wal.appends_per_op" "count" (per_op "wal_appends");
    m "wal.flush_ms_per_op" "ms" (ms_per_op "bdbms_wal_flush_ns_sum");
    m "pager.hit_ratio" "ratio" (if hits +. ins > 0.0 then hits /. (hits +. ins) else 1.0);
    m "pager.page_ins_per_op" "count" (per_op "page_ins");
    m "pager.evictions_per_op" "count" (per_op "evictions");
    m "pager.writebacks_per_op" "count" (per_op "writebacks");
    m "pager.pages_written_per_op" "count" (per_op "writes");
    m "pager.forced_wal_flushes_per_op" "count" (per_op "wal_forced_flushes");
    m "pager.evict_writeback_ms_per_op" "ms" (ms_per_op "bdbms_evict_writeback_ns_sum");
  ]

(* ------------------------------------------------------- trace join *)

type span = { id : int; name : string; start_ns : int; dur_ns : int; trace_id : int }

let span_end s = s.start_ns + s.dur_ns

(* The [trace json] control frame: a flat array of span objects.  Only the
   fields the join needs are read. *)
let parse_spans text =
  let fields obj =
    let n = String.length obj in
    let rec go i acc =
      match String.index_from_opt obj i '"' with
      | None -> acc
      | Some q -> (
          match String.index_from_opt obj (q + 1) '"' with
          | None -> acc
          | Some q' ->
              let key = String.sub obj (q + 1) (q' - q - 1) in
              let vstart = q' + 2 in
              if vstart < n && obj.[vstart] = '"' then begin
                (* string value; span names carry no escaped quotes *)
                let e = String.index_from obj (vstart + 1) '"' in
                go (e + 1) ((key, String.sub obj (vstart + 1) (e - vstart - 1)) :: acc)
              end
              else begin
                let e = ref vstart in
                while !e < n && obj.[!e] <> ',' && obj.[!e] <> '}' do incr e done;
                go !e ((key, String.trim (String.sub obj vstart (!e - vstart))) :: acc)
              end)
    in
    go 0 []
  in
  String.split_on_char '}' text
  |> List.filter_map (fun chunk ->
         match String.index_opt chunk '{' with
         | None -> None
         | Some i -> (
             let f = fields (String.sub chunk i (String.length chunk - i)) in
             let num k = Option.bind (List.assoc_opt k f) int_of_string_opt in
             match (num "id", List.assoc_opt "name" f, num "start_ns", num "dur_ns") with
             | Some id, Some name, Some start_ns, Some dur_ns ->
                 Some { id; name; start_ns; dur_ns; trace_id = Option.value ~default:0 (num "trace_id") }
             | _ -> None))

(* Collects spans from repeated reads of the server's ring.  Span ids are
   allocated in order, so ids never seen by the end of the run are spans
   the ring overwrote before they were read. *)
module Collector = struct
  type t = { spans : (int, span) Hashtbl.t; mutable max_id : int; mutable min_id : int }

  let create () = { spans = Hashtbl.create 4096; max_id = 0; min_id = max_int }

  let absorb t c =
    List.iter
      (fun s ->
        if not (Hashtbl.mem t.spans s.id) then begin
          Hashtbl.replace t.spans s.id s;
          t.max_id <- max t.max_id s.id;
          t.min_id <- min t.min_id s.id
        end)
      (parse_spans (control c "trace json"))

  let lost t =
    if t.max_id = 0 then 0 else t.max_id - t.min_id + 1 - Hashtbl.length t.spans
end

(* Join the collected server spans with the client's timings and split
   each operation's time by layer, in ms per joined operation.

   The server's span stack is shared by its connection threads, so parent
   links are unreliable when two sessions overlap; the join goes by trace
   id and time instead.  The statement's spans carry the client's trace
   id (parse, plan, execute); its request span is the one of the same
   session that encloses them; and since the engine executes and commits
   a statement under one lock, its catalog root swap and WAL flush are the
   first of each to start after the statement's last span ends, inside
   the request.  Wire time is the client's latency minus the request
   span; request self time is what the request span holds beyond the
   statement, the root swap and the flush. *)
let trace_self_times (col : Collector.t) (client : timing list) =
  let spans = Hashtbl.fold (fun _ s acc -> s :: acc) col.Collector.spans [] in
  let by_tid = Hashtbl.create 4096 and requests = Hashtbl.create 64 and commits = ref [] in
  List.iter
    (fun s ->
      if s.trace_id <> 0 then Hashtbl.add by_tid s.trace_id s
      else if s.name = "catalog.root_swap" || s.name = "wal.flush" then commits := s :: !commits
      else
        match Scanf.sscanf_opt s.name "session#%d(%_s@)" (fun n -> n) with
        | Some n -> Hashtbl.add requests n s
        | None -> ())
    spans;
  let commits = List.sort (fun a b -> compare a.start_ns b.start_ns) !commits |> Array.of_list in
  (* first span of [name] starting in [lo, hi] *)
  let first_after name lo hi =
    let n = Array.length commits in
    let rec bsearch a b = if a >= b then a else let mid = (a + b) / 2 in if commits.(mid).start_ns < lo then bsearch (mid + 1) b else bsearch a mid in
    let rec scan i = if i >= n || commits.(i).start_ns > hi then None else if commits.(i).name = name then Some commits.(i) else scan (i + 1) in
    scan (bsearch 0 n)
  in
  let wire = ref 0.0 and request = ref 0.0 and stmt = ref 0.0 and swap = ref 0.0 and flush = ref 0.0 in
  let joined = ref 0 in
  List.iter
    (fun (t : timing) ->
      match Hashtbl.find_all by_tid t.tid with
      | [] -> ()
      | tagged -> (
          let lo = List.fold_left (fun acc s -> min acc s.start_ns) max_int tagged in
          let hi = List.fold_left (fun acc s -> max acc (span_end s)) 0 tagged in
          let req =
            List.find_opt (fun r -> r.start_ns <= lo && span_end r >= hi) (Hashtbl.find_all requests t.session)
          in
          match req with
          | None -> ()
          | Some r ->
              incr joined;
              let ms ns = float_of_int ns /. 1e6 in
              let dur = function Some s -> s.dur_ns | None -> 0 in
              let sw = dur (first_after "catalog.root_swap" hi (span_end r)) in
              let fl = dur (first_after "wal.flush" hi (span_end r)) in
              wire := !wire +. (t.total_ms -. ms r.dur_ns);
              stmt := !stmt +. ms (hi - lo);
              swap := !swap +. ms sw;
              flush := !flush +. ms fl;
              request := !request +. ms (r.dur_ns - (hi - lo) - sw - fl)))
    client;
  let per x = if !joined = 0 then 0.0 else x /. float_of_int !joined in
  ( !joined,
    [
      m "trace.wire_self_ms" "ms" (per !wire);
      m "trace.request_self_ms" "ms" (per !request);
      m "trace.stmt_self_ms" "ms" (per !stmt);
      m "trace.root_swap_self_ms" "ms" (per !swap);
      m "trace.wal_flush_self_ms" "ms" (per !flush);
    ] )

(* ------------------------------------------------------- timed phase *)

(* What a timed phase records: every request's client timing, read and
   write latencies, per-template tallies, failures, and (traced) the
   spans read from the server's ring every [fetch_every] requests. *)
type phase = {
  tally : Tally.t;
  chk : Check.t;
  mon : conn;  (* reads counters and the span ring *)
  collector : Collector.t option;
  fetch_every : int;
  mutable reads : float list;
  mutable writes : float list;
  mutable timings : timing list;
  mutable samples : sample list;  (* newest first *)
  mutable host : host list;  (* host_sample readings *)
  mutable attempted : int;
  mutable failed : int;
  mutable txns : int;
  mutable fetch_ms : float;
}

(* Send one timed statement; [Some response] unless the server refused. *)
let send ph conn name ~write sql =
  let resp, t = query conn sql in
  ph.attempted <- ph.attempted + 1;
  Tally.add ph.tally name ~write t.total_ms;
  if write then ph.writes <- t.total_ms :: ph.writes else ph.reads <- t.total_ms :: ph.reads;
  ph.timings <- t :: ph.timings;
  ph.samples <- { at_ms = now_ms (); ms = t.total_ms; write } :: ph.samples;
  (match ph.collector with
  | Some col when ph.attempted mod ph.fetch_every = 0 ->
      let (), ms = time_ms (fun () -> Collector.absorb col ph.mon) in
      ph.fetch_ms <- ph.fetch_ms +. ms
  | _ -> ());
  match response_error resp with
  | Some e ->
      ph.failed <- ph.failed + 1;
      Check.fail ph.chk (Printf.sprintf "%s failed: %s" name e);
      None
  | None -> Some resp

type outcome = {
  ph : phase;
  t0_ms : float;
  wall_ms : float;
  deltas : ((string * float) list, string list) Stdlib.result;
  trace : (int * metric list) option;  (* joined operations, self times *)
  lost : int;
}

(* Run [work] as the timed phase, with the server's counters read before
   and after and, when [traced], its span ring on and read as it goes. *)
let timed ~mon ~chk ~traced ~fetch_every work =
  let ph =
    {
      tally = Tally.create ();
      chk;
      mon;
      collector = (if traced then Some (Collector.create ()) else None);
      fetch_every;
      reads = [];
      writes = [];
      timings = [];
      samples = [];
      host = [];
      attempted = 0;
      failed = 0;
      txns = 0;
      fetch_ms = 0.0;
    }
  in
  let before = read_counters mon in
  if traced then ignore (control mon "trace on");
  let t0 = now_ms () in
  work ph;
  let wall_ms = now_ms () -. t0 in
  let trace, lost =
    match ph.collector with
    | Some col ->
        Collector.absorb col mon;
        ignore (control mon "trace off");
        (Some (trace_self_times col ph.timings), Collector.lost col)
    | None -> (None, 0)
  in
  let after = read_counters mon in
  { ph; t0_ms = t0; wall_ms; deltas = counter_deltas ~before ~after; trace; lost }

(* Sample the host's speed; the workloads call this once per round. *)
let sample_host ph = ph.host <- host_sample () :: ph.host

(* whole-phase rate at reference speed, leaving out [excluded_ms] *)
let ops_s ?(excluded_ms = 0.0) o =
  float_of_int o.ph.attempted /. ((o.wall_ms -. excluded_ms) /. 1000.0) *. slowness o.ph.host

(* The result of a wire workload: end-to-end metrics from the untraced
   phase [main], per-layer metrics from its counter deltas plus the traced
   phase's self times and overhead, and the report lines. *)
let result ~title ~setups ~(main : outcome) ~(traced : outcome option) ~bytes ~user_bytes ~rss ~(chk : Check.t) =
  let ops = main.ph.attempted in
  let base_ops_s = ops_s main in
  let fig = run_figures ~t0:main.t0_ms ~host:main.ph.host (Array.of_list (List.rev main.ph.samples)) in
  let e2e =
    [
      m "setup_s" "s" (median setups);
      m "ops_s" "1/s" fig.ops_s;
      m "read_p50_ms" "ms" fig.read_p50;
      m "write_p50_ms" "ms" fig.write_p50;
      m "space_amp" "ratio" (float_of_int bytes /. float_of_int user_bytes);
      m "peak_rss_mb" "MB" rss;
    ]
  in
  let client_ms_sum = List.fold_left (fun acc (t : timing) -> acc +. t.total_ms) 0.0 main.ph.timings in
  let layers, layer_note =
    match main.deltas with
    | Ok d -> (layer_metrics d ~ops ~txns:main.ph.txns ~client_ms_sum, [])
    | Error names -> ([], [ "layer counters invalid (went down: " ^ String.concat ", " names ^ ")" ])
  in
  let trace_metrics, trace_note =
    match traced with
    | Some ({ trace = Some (joined, self); _ } as o) ->
        (* ring reads happen between requests; leave them out of the rate *)
        let traced_ops_s = ops_s ~excluded_ms:o.ph.fetch_ms o in
        ( self
          @ [
              m "trace.ops_s_traced" "1/s" traced_ops_s;
              m "trace.ops_s_untraced" "1/s" base_ops_s;
              m "trace.overhead_ratio" "ratio" (traced_ops_s /. base_ops_s);
              m "trace.spans_lost" "count" (float_of_int o.lost);
            ],
          [
            Printf.sprintf "traced run: %d of %d operations joined to server spans, %d spans lost, ring read for %.0fms"
              joined o.ph.attempted o.lost o.ph.fetch_ms;
            Printf.sprintf "tracing overhead (whole phases, reference speed): traced ops_s %.2f / untraced ops_s %.2f = %.3f" traced_ops_s base_ops_s
              (traced_ops_s /. base_ops_s);
          ]
          @ List.map (fun (x : metric) -> Printf.sprintf "  %-24s %10.4f %s per op" x.name x.value x.unit_) self )
    | _ -> ([], [])
  in
  let report =
    title
    @ [
        Printf.sprintf "set-ups (s at reference speed): %s" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") setups));
        Printf.sprintf "reads: %s, %.1f%% of requests" (describe_latencies main.ph.reads)
          (100.0 *. float_of_int (List.length main.ph.reads) /. float_of_int (max 1 ops));
        Printf.sprintf "writes: %s" (describe_latencies main.ph.writes);
        Printf.sprintf "timed phase %.0fms, %d ops (%.2f ops/s raw), %d failed, %d txns" main.wall_ms ops
          (float_of_int ops /. (main.wall_ms /. 1000.0))
          main.ph.failed main.ph.txns;
        describe_host main.ph.host;
        describe_figures fig;
        "templates:";
      ]
    @ Tally.lines main.ph.tally @ layer_note @ trace_note
    @ List.map (fun s -> "CHECK FAILED: " ^ s) chk.Check.notes
  in
  {
    correct = chk.Check.ok;
    attempted = main.ph.attempted;
    failed = main.ph.failed;
    e2e;
    layers = (if layers = [] then [] else layers @ trace_metrics);
    report;
  }
