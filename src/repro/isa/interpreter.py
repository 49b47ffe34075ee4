"""Functional interpreter for the RV32IM subset + stream extension.

The interpreter executes one instruction per :meth:`Interpreter.step` and
reports what happened in a :class:`StepInfo`, which the timing model in
:mod:`repro.core.pipeline` converts into cycles. Stream semantics follow the
paper's Listing 1: a ``StreamLoad`` on an exhausted input stream ends the
program (the firmware then resets the core); on a merely *empty* stream it
stalls, giving the firmware a chance to schedule more pages in.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import ExecutionError, StreamError
from repro.isa.instructions import Instr, InstrKind, kind_of
from repro.isa.program import Program
from repro.isa.registers import RegisterFile
from repro.mem.memory import FlatMemory
from repro.mem.streambuffer import StreamBufferSet
from repro.utils.bitops import to_signed32, to_unsigned32


class StepKind(enum.Enum):
    """Outcome class of one interpreter step."""

    OK = "ok"
    HALT = "halt"
    STREAM_STALL = "stream_stall"  # pc unchanged; retry after firmware action
    STREAM_EOS = "stream_eos"  # input exhausted: program is finished


@dataclass
class StepInfo:
    """Everything the timing model needs to know about one executed step."""

    instr: Instr
    pc: int
    kind: InstrKind
    step: StepKind = StepKind.OK
    mem_addr: Optional[int] = None
    mem_size: int = 0
    mem_is_write: bool = False
    stream_sid: Optional[int] = None
    stream_bytes: int = 0
    stream_is_output: bool = False
    branch_taken: bool = False
    #: (rs1, rs2) architectural values for DIV-kind ops — the predictive
    #: timing model's iterative divider latency is operand-dependent.
    operands: Optional[tuple] = None
    #: Resolved target PC for jal/jalr — feeds the predictive model's BTB.
    branch_target: Optional[int] = None


@dataclass
class RunSummary:
    """Aggregate result of :meth:`Interpreter.run`."""

    steps: int
    finished: bool
    halted: bool
    instr_counts: Counter = field(default_factory=Counter)
    stream_bytes_in: int = 0
    stream_bytes_out: int = 0


class Interpreter:
    """Executes a :class:`Program` against memory and stream buffers."""

    def __init__(
        self,
        program: Program,
        memory: FlatMemory,
        in_streams: Optional[StreamBufferSet] = None,
        out_streams: Optional[StreamBufferSet] = None,
    ) -> None:
        self.program = program
        self.memory = memory
        self.in_streams = in_streams
        self.out_streams = out_streams
        self.regs = RegisterFile()
        self.pc = 0
        self.finished = False
        self.halted = False
        self.steps = 0
        self.instr_counts: Counter = Counter()
        self.stream_bytes_in = 0
        self.stream_bytes_out = 0
        # Built on the first step(): the handlers are closures over self, a
        # reference cycle that would keep this interpreter's memory alive
        # until the cyclic collector runs. Runs driven by the fast engine
        # never step, so they never build it.
        self._dispatch: Optional[Dict[str, Callable[[Instr, StepInfo], None]]] = None

    # -- public API --------------------------------------------------------------

    def reset(self) -> None:
        """Firmware-style core reset: PC and registers cleared, streams kept."""
        self.regs.reset()
        self.pc = 0
        self.finished = False
        self.halted = False
        self.steps = 0
        self.instr_counts.clear()
        self.stream_bytes_in = 0
        self.stream_bytes_out = 0

    def step(self) -> StepInfo:
        """Execute the instruction at PC and return what happened."""
        if self.finished:
            raise ExecutionError("step() on a finished program")
        if not 0 <= self.pc < len(self.program.instrs):
            raise ExecutionError(f"PC {self.pc} outside program of {len(self.program)} instrs")
        instr = self.program.instrs[self.pc]
        info = StepInfo(instr=instr, pc=self.pc, kind=kind_of(instr.op))
        if self._dispatch is None:
            self._dispatch = self._build_dispatch()
        handler = self._dispatch.get(instr.op)
        if handler is None:
            raise ExecutionError(f"no handler for opcode {instr.op!r}")
        handler(instr, info)
        if info.step in (StepKind.OK, StepKind.HALT):
            self.steps += 1
            self.instr_counts[info.kind] += 1
        return info

    def run(self, max_steps: int = 10_000_000) -> RunSummary:
        """Run until halt/EOS; stream stalls must be resolved by hooks.

        If a stall repeats without progress (no hook supplied data), raises
        :class:`ExecutionError` instead of spinning forever.
        """
        stalled_at = -1
        while not self.finished:
            if self.steps >= max_steps:
                raise ExecutionError(f"exceeded max_steps={max_steps}")
            info = self.step()
            if info.step is StepKind.STREAM_STALL:
                if stalled_at == self.steps:
                    raise ExecutionError(
                        f"unresolvable stream stall at pc={info.pc} ({info.instr})"
                    )
                stalled_at = self.steps
            else:
                stalled_at = -1
        return RunSummary(
            steps=self.steps,
            finished=self.finished,
            halted=self.halted,
            instr_counts=Counter(self.instr_counts),
            stream_bytes_in=self.stream_bytes_in,
            stream_bytes_out=self.stream_bytes_out,
        )

    # -- handlers ------------------------------------------------------------------

    def _build_dispatch(self) -> Dict[str, Callable[[Instr, StepInfo], None]]:
        d: Dict[str, Callable[[Instr, StepInfo], None]] = {}
        r = self.regs

        def advance() -> None:
            self.pc += 1

        # ALU register-register -------------------------------------------------
        def make_alu_r(fn):
            def handler(i: Instr, info: StepInfo) -> None:
                r.write(i.rd, fn(r.read(i.rs1), r.read(i.rs2)))
                advance()

            return handler

        d["add"] = make_alu_r(lambda a, b: a + b)
        d["sub"] = make_alu_r(lambda a, b: a - b)
        d["and"] = make_alu_r(lambda a, b: a & b)
        d["or"] = make_alu_r(lambda a, b: a | b)
        d["xor"] = make_alu_r(lambda a, b: a ^ b)
        d["sll"] = make_alu_r(lambda a, b: a << (b & 31))
        d["srl"] = make_alu_r(lambda a, b: a >> (b & 31))
        d["sra"] = make_alu_r(lambda a, b: to_signed32(a) >> (b & 31))
        d["slt"] = make_alu_r(lambda a, b: int(to_signed32(a) < to_signed32(b)))
        d["sltu"] = make_alu_r(lambda a, b: int(a < b))
        d["mul"] = make_alu_r(lambda a, b: to_signed32(a) * to_signed32(b))
        d["mulh"] = make_alu_r(lambda a, b: (to_signed32(a) * to_signed32(b)) >> 32)
        d["mulhu"] = make_alu_r(lambda a, b: (a * b) >> 32)
        d["mulhsu"] = make_alu_r(lambda a, b: (to_signed32(a) * b) >> 32)

        def _div(a: int, b: int) -> int:
            a, b = to_signed32(a), to_signed32(b)
            if b == 0:
                return -1
            q = abs(a) // abs(b)
            return -q if (a < 0) != (b < 0) else q

        def _rem(a: int, b: int) -> int:
            a, b = to_signed32(a), to_signed32(b)
            if b == 0:
                return a
            m = abs(a) % abs(b)
            return -m if a < 0 else m

        # DIV-kind ops record their operands (before any rd aliasing) so the
        # predictive timing model can price the iterative divider exactly.
        def make_div(fn):
            def handler(i: Instr, info: StepInfo) -> None:
                a, b = r.read(i.rs1), r.read(i.rs2)
                info.operands = (a, b)
                r.write(i.rd, fn(a, b))
                advance()

            return handler

        d["div"] = make_div(_div)
        d["divu"] = make_div(lambda a, b: 0xFFFFFFFF if b == 0 else a // b)
        d["rem"] = make_div(_rem)
        d["remu"] = make_div(lambda a, b: a if b == 0 else a % b)

        # ALU immediate ---------------------------------------------------------
        def make_alu_i(fn):
            def handler(i: Instr, info: StepInfo) -> None:
                r.write(i.rd, fn(r.read(i.rs1), i.imm))
                advance()

            return handler

        d["addi"] = make_alu_i(lambda a, imm: a + imm)
        d["andi"] = make_alu_i(lambda a, imm: a & to_unsigned32(imm))
        d["ori"] = make_alu_i(lambda a, imm: a | to_unsigned32(imm))
        d["xori"] = make_alu_i(lambda a, imm: a ^ to_unsigned32(imm))
        d["slli"] = make_alu_i(lambda a, imm: a << imm)
        d["srli"] = make_alu_i(lambda a, imm: a >> imm)
        d["srai"] = make_alu_i(lambda a, imm: to_signed32(a) >> imm)
        d["slti"] = make_alu_i(lambda a, imm: int(to_signed32(a) < imm))
        d["sltiu"] = make_alu_i(lambda a, imm: int(a < to_unsigned32(imm)))

        def lui(i: Instr, info: StepInfo) -> None:
            r.write(i.rd, i.imm << 12)
            advance()

        d["lui"] = lui

        # Loads / stores ----------------------------------------------------------
        def make_load(size: int, signed: bool):
            def handler(i: Instr, info: StepInfo) -> None:
                addr = to_unsigned32(r.read(i.rs1) + i.imm)
                raw = self.memory.load_bytes(addr, size)
                value = int.from_bytes(raw, "little", signed=signed)
                r.write(i.rd, value)
                info.mem_addr, info.mem_size, info.mem_is_write = addr, size, False
                advance()

            return handler

        d["lb"] = make_load(1, True)
        d["lbu"] = make_load(1, False)
        d["lh"] = make_load(2, True)
        d["lhu"] = make_load(2, False)
        d["lw"] = make_load(4, False)

        def make_store(size: int):
            def handler(i: Instr, info: StepInfo) -> None:
                addr = to_unsigned32(r.read(i.rs1) + i.imm)
                value = r.read(i.rs2) & ((1 << (8 * size)) - 1)
                self.memory.store_bytes(addr, value.to_bytes(size, "little"))
                info.mem_addr, info.mem_size, info.mem_is_write = addr, size, True
                advance()

            return handler

        d["sb"] = make_store(1)
        d["sh"] = make_store(2)
        d["sw"] = make_store(4)

        # Branches / jumps -----------------------------------------------------------
        def make_branch(cmp):
            def handler(i: Instr, info: StepInfo) -> None:
                if cmp(r.read(i.rs1), r.read(i.rs2)):
                    info.branch_taken = True
                    self.pc = i.imm
                else:
                    advance()

            return handler

        d["beq"] = make_branch(lambda a, b: a == b)
        d["bne"] = make_branch(lambda a, b: a != b)
        d["blt"] = make_branch(lambda a, b: to_signed32(a) < to_signed32(b))
        d["bge"] = make_branch(lambda a, b: to_signed32(a) >= to_signed32(b))
        d["bltu"] = make_branch(lambda a, b: a < b)
        d["bgeu"] = make_branch(lambda a, b: a >= b)

        def jal(i: Instr, info: StepInfo) -> None:
            r.write(i.rd, self.pc + 1)
            info.branch_taken = True
            info.branch_target = i.imm
            self.pc = i.imm

        def jalr(i: Instr, info: StepInfo) -> None:
            target = to_unsigned32(r.read(i.rs1) + i.imm)
            r.write(i.rd, self.pc + 1)
            info.branch_taken = True
            info.branch_target = target
            self.pc = target

        d["jal"] = jal
        d["jalr"] = jalr

        def halt(i: Instr, info: StepInfo) -> None:
            info.step = StepKind.HALT
            self.finished = True
            self.halted = True

        d["halt"] = halt

        # Stream extension --------------------------------------------------------
        d["sload"] = self._sload
        d["sstore"] = self._sstore
        d["sskip"] = self._sskip
        d["savail"] = self._savail
        d["seos"] = self._seos
        return d

    # Stream handlers are methods (they need stream sets resolved at call time).

    def _require_in(self, sid: int):
        if self.in_streams is None:
            raise ExecutionError("program uses input streams but none attached")
        return self.in_streams[sid]

    def _require_out(self, sid: int):
        if self.out_streams is None:
            raise ExecutionError("program uses output streams but none attached")
        return self.out_streams[sid]

    def _sload(self, i: Instr, info: StepInfo) -> None:
        stream = self._require_in(i.sid)
        info.stream_sid, info.stream_bytes = i.sid, i.width
        data = stream.consume(i.width)
        if data is None:
            if stream.exhausted:
                info.step = StepKind.STREAM_EOS
                self.finished = True
            else:
                info.step = StepKind.STREAM_STALL
            return
        self.regs.write(i.rd, int.from_bytes(data, "little"))
        self.stream_bytes_in += i.width
        self.pc += 1

    def _sskip(self, i: Instr, info: StepInfo) -> None:
        stream = self._require_in(i.sid)
        info.stream_sid, info.stream_bytes = i.sid, i.imm
        data = stream.consume(i.imm)
        if data is None:
            if stream.exhausted:
                info.step = StepKind.STREAM_EOS
                self.finished = True
            else:
                info.step = StepKind.STREAM_STALL
            return
        self.stream_bytes_in += i.imm
        self.pc += 1

    def _sstore(self, i: Instr, info: StepInfo) -> None:
        stream = self._require_out(i.sid)
        info.stream_sid, info.stream_bytes = i.sid, i.width
        info.stream_is_output = True
        value = self.regs.read(i.rs2) & ((1 << (8 * i.width)) - 1)
        try:
            stream.push(value.to_bytes(i.width, "little"))
        except StreamError:
            info.step = StepKind.STREAM_STALL
            return
        self.stream_bytes_out += i.width
        self.pc += 1

    def _savail(self, i: Instr, info: StepInfo) -> None:
        stream = self._require_in(i.sid)
        info.stream_sid = i.sid
        self.regs.write(i.rd, stream.available)
        self.pc += 1

    def _seos(self, i: Instr, info: StepInfo) -> None:
        stream = self._require_in(i.sid)
        info.stream_sid = i.sid
        self.regs.write(i.rd, int(stream.exhausted))
        self.pc += 1
