type reg = int

let num_regs = 32
let reg_zero = 0
let reg_msg_addr = 28
let reg_msg_len = 29
let reg_pipe_input = 30
let reg_arg0 = 1
let reg_arg1 = 2
let reg_arg2 = 3
let reg_arg3 = 4

type kcall =
  | K_msg_read8
  | K_msg_read16
  | K_msg_read32
  | K_msg_write32
  | K_copy
  | K_dilp
  | K_send
  | K_msg_len

type violation =
  | Gas_exhausted
  | Mem_fault of int
  | Wild_jump of int
  | Div_by_zero
  | Verifier_reject of string
  | Call_denied of kcall

type insn =
  | Li of reg * int
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Addi of reg * reg * int
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Divu of reg * reg * reg
  | Remu of reg * reg * reg
  | And_ of reg * reg * reg
  | Or_ of reg * reg * reg
  | Xor_ of reg * reg * reg
  | Andi of reg * reg * int
  | Ori of reg * reg * int
  | Xori of reg * reg * int
  | Sll of reg * reg * int
  | Srl of reg * reg * int
  | Sltu of reg * reg * reg
  | Ld8 of reg * reg * int
  | Ld16 of reg * reg * int
  | Ld32 of reg * reg * int
  | St8 of reg * reg * int
  | St16 of reg * reg * int
  | St32 of reg * reg * int
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | Jmp of int
  | Jr of reg
  | Call of kcall
  | Cksum32 of reg * reg
  | Bswap16 of reg * reg
  | Bswap32 of reg * reg
  | Commit
  | Abort
  | Halt
  | Adds of reg * reg * reg
  | Fadd of reg * reg * reg
  | Check_addr of reg * int * int
  | Check_div of reg
  | Check_jump of reg
  | Gas_probe

let base_cycles = function
  | Mul _ -> 8
  | Divu _ | Remu _ -> 35
  | Cksum32 _ -> 2
  | Bswap16 _ -> 4
  | Bswap32 _ -> 9
  | Fadd _ -> 2
  | Li _ | Mov _ | Add _ | Addi _ | Sub _ | And_ _ | Or_ _ | Xor_ _
  | Andi _ | Ori _ | Xori _ | Sll _ | Srl _ | Sltu _
  | Ld8 _ | Ld16 _ | Ld32 _ | St8 _ | St16 _ | St32 _
  | Beq _ | Bne _ | Bltu _ | Bgeu _ | Jmp _ | Jr _ | Call _
  | Commit | Abort | Halt | Adds _
  | Check_addr _ | Check_div _ | Check_jump _ | Gas_probe -> 1

let is_terminator = function
  | Commit | Abort | Halt | Jmp _ | Jr _ -> true
  | _ -> false

let branch_target = function
  | Beq (_, _, t) | Bne (_, _, t) | Bltu (_, _, t) | Bgeu (_, _, t)
  | Jmp t -> Some t
  | _ -> None

let with_branch_target insn t =
  match insn with
  | Beq (a, b, _) -> Beq (a, b, t)
  | Bne (a, b, _) -> Bne (a, b, t)
  | Bltu (a, b, _) -> Bltu (a, b, t)
  | Bgeu (a, b, _) -> Bgeu (a, b, t)
  | Jmp _ -> Jmp t
  | other -> other

let is_sandbox_check = function
  | Check_addr _ | Check_div _ | Check_jump _ | Gas_probe -> true
  | _ -> false

let kcall_name = function
  | K_msg_read8 -> "msg_read8"
  | K_msg_read16 -> "msg_read16"
  | K_msg_read32 -> "msg_read32"
  | K_msg_write32 -> "msg_write32"
  | K_copy -> "copy"
  | K_dilp -> "dilp"
  | K_send -> "send"
  | K_msg_len -> "msg_len"

let pp_violation ppf = function
  | Gas_exhausted -> Format.pp_print_string ppf "gas exhausted"
  | Mem_fault a -> Format.fprintf ppf "memory fault at 0x%x" a
  | Wild_jump t -> Format.fprintf ppf "wild jump to %d" t
  | Div_by_zero -> Format.pp_print_string ppf "divide by zero"
  | Verifier_reject msg -> Format.fprintf ppf "verifier reject: %s" msg
  | Call_denied k -> Format.fprintf ppf "kernel call denied: %s" (kcall_name k)

let pp ppf insn =
  let f fmt = Format.fprintf ppf fmt in
  match insn with
  | Li (d, v) -> f "li    r%d, %d" d v
  | Mov (d, s) -> f "mov   r%d, r%d" d s
  | Add (d, a, b) -> f "add   r%d, r%d, r%d" d a b
  | Addi (d, a, v) -> f "addi  r%d, r%d, %d" d a v
  | Sub (d, a, b) -> f "sub   r%d, r%d, r%d" d a b
  | Mul (d, a, b) -> f "mul   r%d, r%d, r%d" d a b
  | Divu (d, a, b) -> f "divu  r%d, r%d, r%d" d a b
  | Remu (d, a, b) -> f "remu  r%d, r%d, r%d" d a b
  | And_ (d, a, b) -> f "and   r%d, r%d, r%d" d a b
  | Or_ (d, a, b) -> f "or    r%d, r%d, r%d" d a b
  | Xor_ (d, a, b) -> f "xor   r%d, r%d, r%d" d a b
  | Andi (d, a, v) -> f "andi  r%d, r%d, %d" d a v
  | Ori (d, a, v) -> f "ori   r%d, r%d, %d" d a v
  | Xori (d, a, v) -> f "xori  r%d, r%d, %d" d a v
  | Sll (d, a, v) -> f "sll   r%d, r%d, %d" d a v
  | Srl (d, a, v) -> f "srl   r%d, r%d, %d" d a v
  | Sltu (d, a, b) -> f "sltu  r%d, r%d, r%d" d a b
  | Ld8 (d, b, o) -> f "ld8   r%d, %d(r%d)" d o b
  | Ld16 (d, b, o) -> f "ld16  r%d, %d(r%d)" d o b
  | Ld32 (d, b, o) -> f "ld32  r%d, %d(r%d)" d o b
  | St8 (s, b, o) -> f "st8   r%d, %d(r%d)" s o b
  | St16 (s, b, o) -> f "st16  r%d, %d(r%d)" s o b
  | St32 (s, b, o) -> f "st32  r%d, %d(r%d)" s o b
  | Beq (a, b, t) -> f "beq   r%d, r%d, @%d" a b t
  | Bne (a, b, t) -> f "bne   r%d, r%d, @%d" a b t
  | Bltu (a, b, t) -> f "bltu  r%d, r%d, @%d" a b t
  | Bgeu (a, b, t) -> f "bgeu  r%d, r%d, @%d" a b t
  | Jmp t -> f "jmp   @%d" t
  | Jr r -> f "jr    r%d" r
  | Call k -> f "call  %s" (kcall_name k)
  | Cksum32 (acc, s) -> f "cksum32 r%d, r%d" acc s
  | Bswap16 (d, s) -> f "bswap16 r%d, r%d" d s
  | Bswap32 (d, s) -> f "bswap32 r%d, r%d" d s
  | Commit -> f "commit"
  | Abort -> f "abort"
  | Halt -> f "halt"
  | Adds (d, a, b) -> f "adds  r%d, r%d, r%d" d a b
  | Fadd (d, a, b) -> f "fadd  f%d, f%d, f%d" d a b
  | Check_addr (r, o, s) -> f "chk.addr r%d+%d (%d bytes)" r o s
  | Check_div r -> f "chk.div r%d" r
  | Check_jump r -> f "chk.jmp r%d" r
  | Gas_probe -> f "gas.probe"

let to_string insn = Format.asprintf "%a" pp insn
