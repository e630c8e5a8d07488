(* Minimal JSON: printer + recursive-descent parser.  See json.mli for why
   this exists at all (no JSON library in the container). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing --------------------------------------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    (* infinities and NaN are not JSON; degrade to null rather than emit an
       unparseable stream *)
    if Float.is_finite f then Buffer.add_string b (float_to_string f)
    else Buffer.add_string b "null"
  | String s -> escape_string b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* Indented rendering for values meant to be read by people (the explain
   subsystem embeds machine-readable JSON in its HTML reports).  Same
   grammar as [write]: [of_string] parses either form back. *)
let to_string_pretty v =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go ind = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> write b v
    | List [] -> Buffer.add_string b "[]"
    | List vs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (ind + 2);
          go (ind + 2) v)
        vs;
      Buffer.add_char b '\n';
      pad ind;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (ind + 2);
          escape_string b k;
          Buffer.add_string b ": ";
          go (ind + 2) v)
        fields;
      Buffer.add_char b '\n';
      pad ind;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let pp ppf v = Fmt.string ppf (to_string v)

(* -- parsing ---------------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> parse_error "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let utf8_of_code b code =
  (* encode a BMP code point (we do not combine surrogate pairs; lone
     surrogates become U+FFFD) *)
  let code = if code >= 0xD800 && code <= 0xDFFF then 0xFFFD else code in
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_error "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> advance c; Buffer.add_char b '"'; loop ()
      | Some '\\' -> advance c; Buffer.add_char b '\\'; loop ()
      | Some '/' -> advance c; Buffer.add_char b '/'; loop ()
      | Some 'n' -> advance c; Buffer.add_char b '\n'; loop ()
      | Some 'r' -> advance c; Buffer.add_char b '\r'; loop ()
      | Some 't' -> advance c; Buffer.add_char b '\t'; loop ()
      | Some 'b' -> advance c; Buffer.add_char b '\b'; loop ()
      | Some 'f' -> advance c; Buffer.add_char b '\012'; loop ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then parse_error "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> parse_error "invalid \\u escape '%s'" hex
        in
        c.pos <- c.pos + 4;
        utf8_of_code b code;
        loop ()
      | _ -> parse_error "invalid escape at offset %d" c.pos)
    | Some ch -> advance c; Buffer.add_char b ch; loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ('0' .. '9' | '-' | '+') -> advance c
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance c
    | _ -> continue := false
  done;
  let s = String.sub c.src start (c.pos - start) in
  if s = "" then parse_error "expected a number at offset %d" start;
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> parse_error "invalid number '%s'" s
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
      (* out-of-range integer literal: fall back to float *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> parse_error "invalid number '%s'" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let continue = ref true in
      while !continue do
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c
        | Some '}' ->
          advance c;
          continue := false
        | _ -> parse_error "expected ',' or '}' at offset %d" c.pos
      done;
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let continue = ref true in
      while !continue do
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c
        | Some ']' ->
          advance c;
          continue := false
        | _ -> parse_error "expected ',' or ']' at offset %d" c.pos
      done;
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length s then Ok v
    else Error (Fmt.str "trailing input at offset %d" c.pos)
  | exception Parse_error msg -> Error msg

(* -- accessors --------------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

(* -- fail-closed decoding ----------------------------------------------------- *)

module Decode = struct
  type value = { path : string; json : t }

  exception Malformed of string

  let malformed v = raise (Malformed v.path)

  let run doc read json =
    match read { path = ""; json } with
    | x -> Ok x
    | exception Malformed path -> Error (Printf.sprintf "%s: missing or malformed %s" doc path)

  (* a member of a value that is not an object: a nested value is
     malformed itself; at the root, the member is what is missing *)
  let field k v =
    let path = if v.path = "" then k else v.path ^ "." ^ k in
    match v.json with
    | Obj kvs -> (
      match List.assoc_opt k kvs with Some json -> { path; json } | None -> raise (Malformed path))
    | _ when v.path <> "" -> malformed v
    | _ -> raise (Malformed path)

  let int v = match v.json with Int n -> n | _ -> malformed v
  let float v = match v.json with Float f -> f | Int n -> float_of_int n | _ -> malformed v
  let bool v = match v.json with Bool b -> b | _ -> malformed v
  let string v = match v.json with String s -> s | _ -> malformed v

  let list read v =
    match v.json with
    | List vs -> List.mapi (fun i json -> read { path = Printf.sprintf "%s[%d]" v.path i; json }) vs
    | _ -> malformed v

  let nullable read v = match v.json with Null -> None | _ -> Some (read v)
  let json v = v.json
end
