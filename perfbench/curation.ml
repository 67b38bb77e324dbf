(* The [curation] workload: a curator and a browser against one
   [bdbms_serve] whose data fits its buffer pool, in one closed loop.

   The curator (user [curator], not an approver) renames genes and edits
   gene sequences under content approval, annotates single cells, and
   runs short BEGIN/COMMIT transactions; the approver's session ([admin])
   approves the oldest pending change twice a round.  Sequence
   edits on genes linked by [Gene.GSequence -P-> Protein.PSequence
   -MolWeight-> Protein.PWeight] re-derive the protein, or mark both
   protein cells outdated when the new sequence has no start codon.  After
   every curator action the browser looks a gene up by its indexed [GID];
   every fourth lookup asks for [ANNOTATION(notes)].  Keys are zipfian.

   The requests alternate on one client thread, each waiting for its
   reply, so every run sends the same sequence: the engine runs
   autocommit statements one at a time under its lock anyway, and a
   second client thread only added scheduling noise to the figures.

   The load generator keeps its own model of every value, annotation
   count, pending approval and outdated cell; each lookup, the final state
   and the state after a restart are checked against it. *)

open Common
module P = Bdbms_server.Protocol

let genes = 2000
let linked = 100
let pool_pages = 4096
let zipf_theta = 0.99

(* curator actions per round, in a seeded order, then the approvals *)
let name_updates = 5
let seq_edits = 4 (* the last one of each round has no start codon *)
let annotations = 4
let approvals = 2

(* rounds per second of --seconds, calibrated on the reference machine;
   per-statement cost grows with the catalog, so time is not linear in
   work and a run lasts about --seconds only at the default *)
let rounds_per_s = 4.5

(* ------------------------------------------------------------ genetics *)

(* The standard genetic code, indexed by codon in TCAG order — written
   independently of the program's translator. *)
let code = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"

let base_index = function 'T' -> 0 | 'C' -> 1 | 'A' -> 2 | 'G' -> 3 | _ -> invalid_arg "base"

let translate dna =
  let n = String.length dna in
  if n < 3 || n mod 3 <> 0 || String.sub dna 0 3 <> "ATG" then None
  else begin
    let b = Buffer.create (n / 3) in
    let rec go i =
      if i + 3 <= n then begin
        let aa = code.[(16 * base_index dna.[i]) + (4 * base_index dna.[i + 1]) + base_index dna.[i + 2]] in
        if aa <> '*' then begin
          Buffer.add_char b aa;
          go (i + 3)
        end
      end
    in
    go 0;
    Some (Buffer.contents b)
  end

(* Average residue masses (Da) from the standard table (ExPASy
   Compute pI/Mw), kept here apart from the program's [MolWeight]; a
   protein's weight is its residues plus one water.  The program rounds
   its masses to two decimals, so weights agree within [weight_tolerance]
   for the proteins generated here (at most 60 residues), while a lost or
   stale re-derivation is off by a residue's mass or more. *)
let residue_mass = function
  | 'A' -> 71.0788 | 'R' -> 156.1875 | 'N' -> 114.1038 | 'D' -> 115.0886 | 'C' -> 103.1388
  | 'E' -> 129.1155 | 'Q' -> 128.1307 | 'G' -> 57.0519 | 'H' -> 137.1411 | 'I' -> 113.1594
  | 'L' -> 113.1594 | 'K' -> 128.1741 | 'M' -> 131.1926 | 'F' -> 147.1766 | 'P' -> 97.1167
  | 'S' -> 87.0782 | 'T' -> 101.1051 | 'W' -> 186.2132 | 'Y' -> 163.1760 | 'V' -> 99.1326
  | c -> invalid_arg (Printf.sprintf "residue %c" c)

let mol_weight p = String.fold_left (fun acc c -> acc +. residue_mass c) 18.01528 p
let weight_tolerance = 0.5

(* ATG, 30-59 sense codons, TAA *)
let random_gene rng =
  let codons = 30 + Rng.int rng 30 in
  let b = Buffer.create ((codons + 2) * 3) in
  Buffer.add_string b "ATG";
  for _ = 1 to codons do
    let rec sense () =
      let c = Rng.string rng ~alphabet:"ACGT" ~len:3 in
      if c = "TAA" || c = "TAG" || c = "TGA" then sense () else c
    in
    Buffer.add_string b (sense ())
  done;
  Buffer.add_string b "TAA";
  Buffer.contents b

let gid i = Printf.sprintf "g%05d" i

(* -------------------------------------------------------------- model *)

type model = {
  names : string array;
  seqs : string array;
  anns : int array;  (* annotations on each gene's GName cell *)
  pseq : string array;  (* linked proteins' sequences *)
  pweight : float array;  (* and their weights: 0 as loaded, then re-derived *)
  outdated : bool array;  (* linked proteins with outdated cells *)
  mutable pending : int list;  (* approval ids still pending, oldest first *)
  mutable next_approval : int;
  mutable user_bytes : int;
}

let log_update md =
  md.pending <- md.pending @ [ md.next_approval ];
  md.next_approval <- md.next_approval + 1

(* ------------------------------------------------------------- set-up *)

type env = {
  server : Wire.server;
  admin : Wire.conn;  (* the approver: set-up, approvals, counters, checks *)
  curator : Wire.conn;
  browser : Wire.conn;
  md : model;
}


let insert_rows table rows =
  "INSERT INTO " ^ table ^ " VALUES " ^ String.concat ", " (List.map (fun r -> "(" ^ String.concat ", " r ^ ")") rows)

let setup ~serve ~dir ~seed =
  let rng = Rng.make seed 11 in
  let seqs = Array.init genes (fun _ -> random_gene rng) in
  let md =
    {
      names = Array.init genes (Printf.sprintf "n%05d");
      seqs;
      anns = Array.make genes 0;
      pseq = Array.init linked (fun i -> Option.get (translate seqs.(i)));
      pweight = Array.make linked 0.0;
      outdated = Array.make linked false;
      pending = [];
      next_approval = 1;
      user_bytes = 0;
    }
  in
  let server = Wire.start ~serve ~dir ~db:(Filename.concat dir "curation.db") ~pool_pages in
  let admin = Wire.connect server ~user:"admin" ~tid_base:1_000_000 in
  let ex sql = ignore (Wire.exec_exn admin sql) in
  ex "CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence DNA)";
  ex "CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence PROTEIN, PWeight FLOAT)";
  ex "CREATE ANNOTATION TABLE notes ON Gene";
  ex "CREATE USER curator";
  List.iter
    (fun rows -> ex (insert_rows "Gene" rows))
    (chunks 250
       (List.init genes (fun i ->
            md.user_bytes <- md.user_bytes + 6 + String.length md.names.(i) + String.length seqs.(i);
            [ q (gid i); q md.names.(i); q seqs.(i) ])));
  ex
    (insert_rows "Protein"
       (List.init linked (fun i ->
            md.user_bytes <- md.user_bytes + 6 + 6 + String.length md.pseq.(i) + 8;
            [ q (Printf.sprintf "p%05d" i); q (gid i); q md.pseq.(i); "0.0" ])));
  ex "CREATE INDEX gid_idx ON Gene (GID)";
  ex "CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P";
  ex "CREATE DEPENDENCY r2 FROM Protein.PSequence TO Protein.PWeight USING MolWeight";
  for i = 0 to linked - 1 do
    ex (Printf.sprintf "LINK DEPENDENCY r1 FROM (%d) TO %d" i i);
    ex (Printf.sprintf "LINK DEPENDENCY r2 FROM (%d) TO %d" i i)
  done;
  ex "START CONTENT APPROVAL ON Gene COLUMNS (GName, GSequence) APPROVED BY admin";
  let curator = Wire.connect server ~user:"curator" ~tid_base:2_000_000 in
  let browser = Wire.connect server ~user:"admin" ~tid_base:3_000_000 in
  (* warm-up: the first probes build the lazy GID index and fault the
     tables in; read-only, so the model is unchanged *)
  for i = 0 to 49 do
    ignore (Wire.exec_exn browser (Printf.sprintf "SELECT GID, GName, GSequence FROM Gene WHERE GID = '%s'" (gid (i * 37 mod genes))))
  done;
  ignore (Wire.exec_exn browser "SELECT GID, GName FROM Gene ANNOTATION(notes) WHERE GID = 'g00000'");
  { server; admin; curator; browser; md }

let teardown env =
  Wire.close env.admin;
  Wire.close env.curator;
  Wire.close env.browser;
  Wire.stop env.server

(* ---------------------------------------------------------- operations *)

type action = Rename | Edit_seq of bool (* has a start codon *) | Annotate | Txn

let rename_sql md i =
  let name = Printf.sprintf "n%05d-%d" i md.next_approval in
  md.user_bytes <- md.user_bytes + String.length name;
  (name, Printf.sprintf "UPDATE Gene SET GName = '%s' WHERE GID = '%s'" name (gid i))

(* One lookup by the browser: the answer must be the gene's current
   values (and annotation count) in the model. *)
let browse env (ph : Wire.phase) i ~annotated =
  let md = env.md in
  let sql =
    if annotated then Printf.sprintf "SELECT GID, GName FROM Gene ANNOTATION(notes) WHERE GID = '%s'" (gid i)
    else Printf.sprintf "SELECT GID, GName, GSequence FROM Gene WHERE GID = '%s'" (gid i)
  in
  match Wire.send ph env.browser (if annotated then "lookup_annotated" else "lookup") ~write:false sql with
  | None -> ()
  | Some (P.Rows { rendered }) -> (
      let expected = if annotated then [ gid i; md.names.(i) ] else [ gid i; md.names.(i); md.seqs.(i) ] in
      match parse_table rendered with
      | Ok { rows = [ (cells, anns) ]; _ } ->
          Check.expect ph.chk
            (cells = expected && ((not annotated) || List.length anns = md.anns.(i)))
            (fun () -> Printf.sprintf "lookup of %s returned %s" (gid i) (String.concat " | " cells))
      | Ok t -> Check.fail ph.chk (Printf.sprintf "lookup of %s returned %d rows" (gid i) (List.length t.rows))
      | Error e -> Check.fail ph.chk ("lookup: " ^ e))
  | Some r -> Check.fail ph.chk ("lookup answered " ^ Wire.response_text r)

let workload env ~rounds ~seed (ph : Wire.phase) =
  let md = env.md in
  let rng = Rng.make seed 21 and brng = Rng.make seed 31 in
  let zg = Zipf.make ~n:genes ~theta:zipf_theta and zl = Zipf.make ~n:linked ~theta:zipf_theta in
  let lookups = ref 0 in
  let lookup () =
    incr lookups;
    browse env ph (Zipf.draw zg brng) ~annotated:(!lookups mod 4 = 0)
  in
  let write name sql = Wire.send ph env.curator name ~write:true sql <> None in
  for round = 1 to rounds do
    Wire.sample_host ph;
    let body =
      Array.concat
        [
          Array.make name_updates Rename;
          Array.init seq_edits (fun j -> Edit_seq (j < seq_edits - 1));
          Array.make annotations Annotate;
          [| Txn |];
        ]
    in
    Rng.shuffle rng body;
    Array.iter
      (fun action ->
        (match action with
        | Rename ->
            let i = Zipf.draw zg rng in
            let name, sql = rename_sql md i in
            if write "rename" sql then begin
              md.names.(i) <- name;
              log_update md
            end
        | Edit_seq valid ->
            let i = Zipf.draw zl rng in
            let g = random_gene rng in
            let g = if valid then g else "TTG" ^ String.sub g 3 (String.length g - 3) in
            md.user_bytes <- md.user_bytes + String.length g;
            if
              write
                (if valid then "edit_seq" else "edit_seq_outdating")
                (Printf.sprintf "UPDATE Gene SET GSequence = '%s' WHERE GID = '%s'" g (gid i))
            then begin
              md.seqs.(i) <- g;
              log_update md;
              match translate g with
              | Some p ->
                  md.pseq.(i) <- p;
                  md.pweight.(i) <- mol_weight p;
                  md.outdated.(i) <- false
              | None -> md.outdated.(i) <- true
            end
        | Annotate ->
            let i = Zipf.draw zg rng in
            let text = Printf.sprintf "curated note r%d on %s" round (gid i) in
            md.user_bytes <- md.user_bytes + String.length text;
            if
              write "annotate"
                (Printf.sprintf "ADD ANNOTATION TO Gene.notes VALUE '%s' ON (SELECT GName FROM Gene WHERE GID = '%s')"
                   text (gid i))
            then md.anns.(i) <- md.anns.(i) + 1
        | Txn ->
            let i1 = Zipf.draw zg rng and i2 = Zipf.draw zg rng in
            let n1, sql1 = rename_sql md i1 in
            let n2, sql2 = rename_sql md i2 in
            if write "txn_begin" "BEGIN" && write "txn_update" sql1 && write "txn_update" sql2 && write "txn_commit" "COMMIT"
            then begin
              ph.txns <- ph.txns + 1;
              md.names.(i1) <- n1;
              log_update md;
              md.names.(i2) <- n2;
              log_update md
            end);
        lookup ())
      body;
    for _ = 1 to approvals do
      (match md.pending with
      | id :: rest ->
          if Wire.send ph env.admin "approve" ~write:true (Printf.sprintf "APPROVE %d" id) <> None then md.pending <- rest
      | [] -> Check.fail ph.chk "no pending change to approve");
      lookup ()
    done
  done

(* ------------------------------------------------------------- checks *)

(* Compare the whole database with the model: every gene's values and
   annotation count, every linked protein, the pending approvals and the
   outdated cells. *)
let check_state md conn (chk : Check.t) ~label =
  let fail fmt = Printf.ksprintf (fun s -> Check.fail chk (label ^ ": " ^ s)) fmt in
  let by_gid sql =
    let h = Hashtbl.create genes in
    List.iter
      (fun (cells, anns) -> match cells with g :: _ -> Hashtbl.replace h g (cells, anns) | [] -> ())
      (Wire.rows_exn conn sql).rows;
    h
  in
  let genes_t = by_gid "SELECT GID, GName, GSequence FROM Gene" in
  let ann_t = by_gid "SELECT GID, GName FROM Gene ANNOTATION(notes)" in
  let prot_t = by_gid "SELECT GID, PSequence, PWeight FROM Protein" in
  if Hashtbl.length genes_t <> genes then fail "%d distinct genes" (Hashtbl.length genes_t);
  for i = 0 to genes - 1 do
    (match Hashtbl.find_opt genes_t (gid i) with
    | Some (cells, _) when cells = [ gid i; md.names.(i); md.seqs.(i) ] -> ()
    | Some (cells, _) -> fail "gene %s is %s" (gid i) (String.concat " | " cells)
    | None -> fail "gene %s missing" (gid i));
    match Hashtbl.find_opt ann_t (gid i) with
    | Some (_, anns) when List.length anns = md.anns.(i) -> ()
    | Some (_, anns) -> fail "gene %s has %d annotations, model %d" (gid i) (List.length anns) md.anns.(i)
    | None -> fail "gene %s missing from the annotated scan" (gid i)
  done;
  let weight_ok w i =
    match float_of_string_opt w with
    | Some w -> Float.abs (w -. md.pweight.(i)) <= weight_tolerance
    | None -> false
  in
  Array.iteri
    (fun i p ->
      match Hashtbl.find_opt prot_t (gid i) with
      | Some ([ _; p'; w ], _) when p' = p && weight_ok w i -> ()
      | Some (cells, _) ->
          fail "protein of %s is %s, model weight %.2f" (gid i) (String.concat " | " cells) md.pweight.(i)
      | None -> fail "protein of %s missing" (gid i))
    md.pseq;
  let pending =
    match Wire.exec_exn conn "SHOW PENDING" with
    | P.Rows { rendered } ->
        String.split_on_char '\n' rendered
        |> List.filter_map (fun l -> if is_prefix ~prefix:"#" l then Scanf.sscanf_opt l "#%d " Fun.id else None)
    | _ -> []
  in
  if pending <> md.pending then
    fail "pending approvals differ: server %d entries, model %d" (List.length pending) (List.length md.pending);
  let outdated =
    (Wire.rows_exn conn "SHOW OUTDATED Protein").rows
    |> List.map (fun (cells, _) -> String.concat ":" cells)
    |> List.sort compare
  in
  let expected =
    List.concat
      (List.init linked (fun i ->
           if md.outdated.(i) then [ Printf.sprintf "%d:PSequence" i; Printf.sprintf "%d:PWeight" i ] else []))
    |> List.sort compare
  in
  if outdated <> expected then
    fail "outdated cells differ: server %d, model %d" (List.length outdated) (List.length expected)

(* ---------------------------------------------------------------- run *)

let run ~serve ~workdir ~seed ~seconds ~trace =
  let rounds = int_of_float (rounds_per_s *. float_of_int seconds) in
  let chk = Check.create () in
  let setups = ref [] and servers = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Wire.kill_quiet !servers) @@ fun () ->
  let fresh k =
    let dir = Filename.concat workdir (Printf.sprintf "curation-%d" k) in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    let env, secs = timed_setup (fun () -> setup ~serve ~dir ~seed) in
    servers := env.server :: !servers;
    setups := secs :: !setups;
    (dir, env)
  in
  let phase env ~traced =
    let o = Wire.timed ~mon:env.admin ~chk ~traced ~fetch_every:4 (workload env ~rounds ~seed) in
    check_state env.md env.admin chk ~label:(if traced then "traced end state" else "end state");
    o
  in
  let phases = if trace then 2 else 1 in
  for k = 1 to setups_per_run - phases do
    let dir, env = fresh k in
    ignore (teardown env);
    rm_rf dir
  done;
  let base =
    if trace then begin
      let dir, env = fresh (setups_per_run - 1) in
      let o = phase env ~traced:false in
      ignore (teardown env);
      rm_rf dir;
      Some o
    end
    else None
  in
  let dir, env = fresh setups_per_run in
  let last = phase env ~traced:trace in
  let rss = teardown env in
  let db = env.server.Wire.db in
  let bytes = file_size db + file_size (db ^ ".wal") in
  (* reopen: every acknowledged write must survive the restart *)
  let s' = Wire.start ~serve ~dir ~db ~pool_pages in
  servers := s' :: !servers;
  let c = Wire.connect s' ~user:"admin" ~tid_base:4_000_000 in
  check_state env.md c chk ~label:"after restart";
  Wire.close c;
  ignore (Wire.stop s');
  servers := [];
  rm_rf dir;
  Wire.result
    ~title:
      [
        Printf.sprintf "curation: %d genes (%d linked to proteins), pool %d pages; %d curator rounds, a lookup after each action"
          genes linked pool_pages rounds;
      ]
    ~setups:!setups
    ~main:(Option.value base ~default:last)
    ~traced:(if trace then Some last else None)
    ~bytes ~user_bytes:env.md.user_bytes ~rss ~chk
