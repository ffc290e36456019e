(** The Internet Mobility 4x4 grid (Figure 10) — the paper's central
    contribution.

    A conversation between a mobile host (MH) and a correspondent host (CH)
    pairs one of four {e outgoing} delivery methods (MH to CH, §4) with one
    of four {e incoming} methods (CH to MH, §5).  Of the sixteen cells,
    seven are useful, three are valid but would not normally be used, and
    six do not work with connection-oriented protocols like TCP because
    they mix the temporary care-of address with the permanent home address
    as transport endpoints (§6.4).

    This module encodes the grid itself — classification, applicability
    predicates, and the "series of tests" (abstract) that picks the best
    available cell for a given environment. *)

(** How the mobile host sends packets to the correspondent (§4). *)
type out_method =
  | Out_IE  (** Indirect, Encapsulated: reverse-tunnel via the home agent *)
  | Out_DE  (** Direct, Encapsulated: tunnel straight to the correspondent *)
  | Out_DH  (** Direct, plain packet with the permanent Home address *)
  | Out_DT  (** Direct, plain packet with the Temporary address (no Mobile IP) *)

(** How the correspondent sends packets to the mobile host (§5). *)
type in_method =
  | In_IE  (** Indirect, Encapsulated: via the home agent *)
  | In_DE  (** Direct, Encapsulated: tunnel to the care-of address *)
  | In_DH  (** Direct to the Home address in a single link-layer hop *)
  | In_DT  (** Direct, plain packet to the Temporary address (no Mobile IP) *)

type cell = { incoming : in_method; outgoing : out_method }

(** Figure 10's shading. *)
type classification =
  | Useful
  | Valid_but_unlikely  (** works with TCP but would not normally be used *)
  | Broken  (** does not work with current protocols such as TCP *)

val all_out : out_method list
val all_in : in_method list
val all_cells : cell list
(** All sixteen, row-major in the paper's order (In-IE row first). *)

val useful_cells : cell list
(** The seven unshaded cells. *)

val classify : cell -> classification

val endpoint_consistent : cell -> bool
(** The structural reason a cell can or cannot carry TCP: the address the
    MH uses as its transport endpoint when sending (home for IE/DE/DH,
    care-of for DT) must equal the address at which the incoming method
    delivers (home for IE/DE/DH, care-of for DT).  §6.4's argument, as a
    predicate. *)

(** {1 Environment and applicability} *)

(** The three factors of the abstract, concretely: what to optimise, how
    permissive the networks are, and how capable the correspondent is. *)
type environment = {
  mobility_required : bool;
      (** connection durability / location transparency is needed *)
  privacy_required : bool;
      (** the mobile user does not want the CH to learn its location (§4) *)
  source_filtering_on_path : bool;
      (** a boundary router on the MH-to-CH path performs source-address
          filtering (Figure 2) *)
  ch_decapsulates : bool;
      (** the CH can decapsulate encapsulated packets (e.g. recent Linux) *)
  ch_mobile_aware : bool;  (** the CH runs mobile-aware networking software *)
  ch_knows_care_of : bool;
      (** the CH has learned the current care-of address (ICMP advert or
          DNS temporary record, §3.2) *)
  same_segment : bool;  (** MH and CH share a link-layer network segment *)
}

val default_environment : environment
(** Worst-case conservative: mobility required, filtering assumed present,
    conventional correspondent: [In_IE/Out_IE] territory. *)

val cell_applicable : environment -> cell -> bool
(** Both directions applicable and the cell not Broken. *)

val best : environment -> cell
(** The "series of tests" of the abstract: the most efficient applicable
    cell.  Order of tests: no mobility needed → Row D; privacy → full
    bidirectional tunneling; same segment → Row C; mobile-aware CH with a
    known care-of → Row B; otherwise Row A, choosing the cheapest outgoing
    method the network and CH permit. *)

val out_of_string : string -> out_method option
val in_of_string : string -> in_method option
val out_to_string : out_method -> string
val in_to_string : in_method -> string
val cell_to_string : cell -> string

val describe_out : out_method -> string
(** One-line summary of the method's packet format, as in Figures 6/7. *)

val describe_in : in_method -> string
val describe_cell : cell -> string
(** The Figure 10 box text for the cell (empty for broken cells). *)

val equal_out : out_method -> out_method -> bool
val equal_cell : cell -> cell -> bool
