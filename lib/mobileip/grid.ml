type out_method = Out_IE | Out_DE | Out_DH | Out_DT
type in_method = In_IE | In_DE | In_DH | In_DT
type cell = { incoming : in_method; outgoing : out_method }
type classification = Useful | Valid_but_unlikely | Broken

let all_out = [ Out_IE; Out_DE; Out_DH; Out_DT ]
let all_in = [ In_IE; In_DE; In_DH; In_DT ]

let all_cells =
  List.concat_map
    (fun incoming -> List.map (fun outgoing -> { incoming; outgoing }) all_out)
    all_in

(* The MH's transport endpoint is its home address except under Out-DT;
   the incoming method delivers to the home address except under In-DT. *)
let out_uses_home = function Out_IE | Out_DE | Out_DH -> true | Out_DT -> false
let in_delivers_home = function In_IE | In_DE | In_DH -> true | In_DT -> false

let endpoint_consistent c =
  out_uses_home c.outgoing = in_delivers_home c.incoming

let classify c =
  if not (endpoint_consistent c) then Broken
  else
    match (c.incoming, c.outgoing) with
    (* Row A: conventional correspondent. *)
    | In_IE, (Out_IE | Out_DE | Out_DH) -> Useful
    (* Row B: the MH should reply directly if the CH can send directly. *)
    | In_DE, Out_IE -> Valid_but_unlikely
    | In_DE, (Out_DE | Out_DH) -> Useful
    (* Row C: same segment — reply in a single link-layer hop too. *)
    | In_DH, (Out_IE | Out_DE) -> Valid_but_unlikely
    | In_DH, Out_DH -> Useful
    (* Row D: forgoing Mobile IP entirely. *)
    | In_DT, Out_DT -> Useful
    | (In_IE | In_DE | In_DH | In_DT), _ -> Broken

let works_with_tcp c = classify c <> Broken
let useful_cells = List.filter (fun c -> classify c = Useful) all_cells

type environment = {
  mobility_required : bool;
  privacy_required : bool;
  source_filtering_on_path : bool;
  ch_decapsulates : bool;
  ch_mobile_aware : bool;
  ch_knows_care_of : bool;
  same_segment : bool;
}

let default_environment =
  {
    mobility_required = true;
    privacy_required = false;
    source_filtering_on_path = true;
    ch_decapsulates = false;
    ch_mobile_aware = false;
    ch_knows_care_of = false;
    same_segment = false;
  }

let out_applicable env = function
  | Out_IE -> true (* must always work: only requires reaching the home agent *)
  | Out_DE -> env.ch_decapsulates || env.ch_mobile_aware
  | Out_DH -> env.same_segment || not env.source_filtering_on_path
  | Out_DT -> not env.mobility_required

let in_applicable env = function
  | In_IE -> true (* the home agent is always present *)
  | In_DE -> env.ch_mobile_aware && env.ch_knows_care_of
  | In_DH -> env.same_segment
  | In_DT -> not env.mobility_required

let cell_applicable env c =
  works_with_tcp c
  && out_applicable env c.outgoing
  && in_applicable env c.incoming
  && ((not env.privacy_required) || c.outgoing = Out_IE)

(* The series of tests (abstract, §6): each test narrows to a row, then the
   cheapest permitted outgoing method is chosen within it. *)
let best env =
  (* Privacy outranks efficiency: even a connection that needs no mobility
     support must not reveal the care-of address ("sending all outgoing
     packets indirectly via the home agent may be the method the user
     wants, even when other more efficient alternatives are available"). *)
  if env.privacy_required then { incoming = In_IE; outgoing = Out_IE }
  else if not env.mobility_required then { incoming = In_DT; outgoing = Out_DT }
  else if env.same_segment then { incoming = In_DH; outgoing = Out_DH }
  else begin
    let outgoing =
      if not env.source_filtering_on_path then Out_DH
      else if env.ch_decapsulates || env.ch_mobile_aware then Out_DE
      else Out_IE
    in
    if env.ch_mobile_aware && env.ch_knows_care_of then
      { incoming = In_DE; outgoing }
    else { incoming = In_IE; outgoing }
  end

let out_to_string = function
  | Out_IE -> "Out-IE"
  | Out_DE -> "Out-DE"
  | Out_DH -> "Out-DH"
  | Out_DT -> "Out-DT"

let in_to_string = function
  | In_IE -> "In-IE"
  | In_DE -> "In-DE"
  | In_DH -> "In-DH"
  | In_DT -> "In-DT"

let out_of_string = function
  | "Out-IE" | "out-ie" -> Some Out_IE
  | "Out-DE" | "out-de" -> Some Out_DE
  | "Out-DH" | "out-dh" -> Some Out_DH
  | "Out-DT" | "out-dt" -> Some Out_DT
  | _ -> None

let in_of_string = function
  | "In-IE" | "in-ie" -> Some In_IE
  | "In-DE" | "in-de" -> Some In_DE
  | "In-DH" | "in-dh" -> Some In_DH
  | "In-DT" | "in-dt" -> Some In_DT
  | _ -> None

let cell_to_string c =
  Printf.sprintf "%s/%s" (in_to_string c.incoming) (out_to_string c.outgoing)

let describe_out = function
  | Out_IE ->
      "s=care-of d=home-agent | S=home D=correspondent (reverse tunnel)"
  | Out_DE -> "s=care-of d=correspondent | S=home D=correspondent"
  | Out_DH -> "S=home D=correspondent (plain)"
  | Out_DT -> "S=care-of D=correspondent (plain, no Mobile IP)"

let describe_in = function
  | In_IE -> "S=CH D=home, then s=home-agent d=care-of | S=CH D=home"
  | In_DE -> "s=CH d=care-of | S=CH D=home"
  | In_DH -> "S=CH D=home, link-layer addressed to the MH directly"
  | In_DT -> "S=CH D=care-of (plain, no Mobile IP)"

let describe_cell c =
  match (c.incoming, c.outgoing) with
  | In_IE, Out_IE -> "Most conservative: most reliable, least efficient"
  | In_IE, Out_DE ->
      "Requires only decapsulation capability of the correspondent host"
  | In_IE, Out_DH ->
      "Requires there to be no security-conscious routers on the path"
  | In_DE, Out_DE -> "Requires fully mobile-aware correspondent host"
  | In_DE, Out_DH ->
      "Requires there to be no security-conscious routers on the path"
  | In_DH, Out_DH -> "Requires both hosts to be on same network segment"
  | In_DT, Out_DT -> "Most efficient, but forgoes benefits of Mobile IP"
  | _ -> (
      match classify c with
      | Valid_but_unlikely -> "Valid, but unlikely to be used"
      | Broken -> "Does not work with current protocols such as TCP"
      | Useful -> "")

let equal_out (a : out_method) b = a = b
let equal_cell (a : cell) b = a = b
