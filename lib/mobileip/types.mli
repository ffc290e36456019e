(** Shared Mobile IP types: mobility bindings and their lifetimes. *)

type binding = {
  home : Netsim.Ipv4_addr.t;
  care_of : Netsim.Ipv4_addr.t;
  lifetime : float;  (** seconds granted *)
  registered_at : float;  (** simulation time of registration *)
  sequence : int;  (** registration sequence number, monotonic per MH *)
}

val binding_valid : now:float -> binding -> bool
val binding_expires_at : binding -> float

(** Result codes carried in registration replies. *)
type reg_code =
  | Reg_accepted
  | Reg_denied_auth  (** authenticator did not verify *)
  | Reg_denied_stale  (** sequence number not newer than current binding *)

val reg_code_to_int : reg_code -> int
val reg_code_of_int : int -> reg_code option
