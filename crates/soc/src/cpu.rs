//! The soft-core execution engine.
//!
//! [`SoftCore`] runs an assembled program on the design's clock (a
//! configurable number of instructions per tick, default 1). Its address
//! space is:
//!
//! * `0x0000_0000 ..` — private scratch RAM (word access, byte addresses);
//! * [`MMIO_BASE`]` ..` — a window onto the project's register map: loads
//!   and stores become register reads/writes, which is how embedded
//!   firmware watches statistics and drives control registers without any
//!   host involvement.
//!
//! Misaligned or out-of-range scratch accesses set a sticky fault and halt
//! the core (real soft cores trap; halting is the honest simulation-level
//! equivalent), which tests assert on.

use crate::isa::Instr;
use netfpga_core::regs::AddressMap;
use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use std::rc::Rc;

/// Base address of the MMIO window onto the register map.
pub const MMIO_BASE: u32 = 0x4000_0000;

/// A fault stops the core and is reported by [`SoftCore::fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Load/store to a scratch address outside RAM.
    BadAddress(u32),
    /// Load/store to a non-word-aligned address.
    Misaligned(u32),
    /// Jump/branch outside the program.
    BadPc(usize),
}

/// The soft-core CPU module.
///
/// ```
/// use netfpga_soc::{assemble, SoftCore};
///
/// let program = assemble(r"
///     li r1, 6
///     li r2, 7
///     li r3, 0
/// mul_loop:                 ; multiply by repeated addition
///     add r3, r3, r1
///     addi r2, r2, -1
///     bne r2, r0, mul_loop
///     halt
/// ").unwrap();
/// let mut cpu = SoftCore::new("demo", program, 64, None, 1);
/// cpu.run_to_halt(1_000);
/// assert_eq!(cpu.reg(3), 42);
/// ```
pub struct SoftCore {
    name: String,
    program: Vec<Instr>,
    regs: [u32; 16],
    pc: usize,
    scratch: Vec<u32>,
    mmio: Option<Rc<AddressMap>>,
    ipc: u32,
    halted: bool,
    fault: Option<Fault>,
    instructions: u64,
    /// Activity-cache flag. Nothing outside the core can restart a halted
    /// program (only a full `reset`, which re-dirties every cache), so the
    /// handle is never woken; it lets the kernel cache the halted state.
    wake: WakeHandle,
}

impl SoftCore {
    /// Create a core with `scratch_bytes` of RAM (rounded up to a word) and
    /// an optional MMIO window onto `mmio`. Executes `ipc` instructions per
    /// clock tick.
    pub fn new(
        name: &str,
        program: Vec<Instr>,
        scratch_bytes: usize,
        mmio: Option<Rc<AddressMap>>,
        ipc: u32,
    ) -> SoftCore {
        assert!(ipc >= 1);
        SoftCore {
            name: name.to_string(),
            program,
            regs: [0; 16],
            pc: 0,
            scratch: vec![0; scratch_bytes.div_ceil(4)],
            mmio,
            ipc,
            halted: false,
            fault: None,
            instructions: 0,
            wake: WakeHandle::new(),
        }
    }

    /// Register value (`r0` is always zero).
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[usize::from(r)]
    }

    /// Pre-set a register (boot arguments).
    pub fn set_reg(&mut self, r: u8, value: u32) {
        if r != 0 {
            self.regs[usize::from(r)] = value;
        }
    }

    /// Read a scratch word by byte address (test observation).
    pub fn scratch_word(&self, addr: u32) -> u32 {
        self.scratch[(addr / 4) as usize]
    }

    /// Whether the core has executed `halt` (or faulted).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The sticky fault, if any.
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    /// Instructions retired.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Run until halt or `max_instructions`, outside any simulator (for
    /// pure-compute tests and the assembler examples). Returns retired
    /// instruction count.
    pub fn run_to_halt(&mut self, max_instructions: u64) -> u64 {
        let start = self.instructions;
        while !self.halted && self.instructions - start < max_instructions {
            self.step();
        }
        self.instructions - start
    }

    fn trap(&mut self, fault: Fault) {
        self.fault = Some(fault);
        self.halted = true;
    }

    fn load(&mut self, addr: u32) -> Option<u32> {
        if addr >= MMIO_BASE {
            let Some(mmio) = &self.mmio else {
                self.trap(Fault::BadAddress(addr));
                return None;
            };
            return Some(mmio.read(addr - MMIO_BASE));
        }
        if !addr.is_multiple_of(4) {
            self.trap(Fault::Misaligned(addr));
            return None;
        }
        match self.scratch.get((addr / 4) as usize) {
            Some(&v) => Some(v),
            None => {
                self.trap(Fault::BadAddress(addr));
                None
            }
        }
    }

    fn store(&mut self, addr: u32, value: u32) {
        if addr >= MMIO_BASE {
            match &self.mmio {
                Some(mmio) => mmio.write(addr - MMIO_BASE, value),
                None => self.trap(Fault::BadAddress(addr)),
            }
            return;
        }
        if !addr.is_multiple_of(4) {
            self.trap(Fault::Misaligned(addr));
            return;
        }
        match self.scratch.get_mut((addr / 4) as usize) {
            Some(slot) => *slot = value,
            None => self.trap(Fault::BadAddress(addr)),
        }
    }

    fn write_reg(&mut self, rd: u8, value: u32) {
        if rd != 0 {
            self.regs[usize::from(rd)] = value;
        }
    }

    /// Execute one instruction.
    pub fn step(&mut self) {
        if self.halted {
            return;
        }
        let Some(&instr) = self.program.get(self.pc) else {
            // Running off the end halts cleanly (implicit halt).
            self.halted = true;
            return;
        };
        self.instructions += 1;
        let mut next = self.pc + 1;
        let r = |x: u8| self.regs[usize::from(x)];
        match instr {
            Instr::Add { rd, ra, rb } => self.write_reg(rd, r(ra).wrapping_add(r(rb))),
            Instr::Sub { rd, ra, rb } => self.write_reg(rd, r(ra).wrapping_sub(r(rb))),
            Instr::And { rd, ra, rb } => self.write_reg(rd, r(ra) & r(rb)),
            Instr::Or { rd, ra, rb } => self.write_reg(rd, r(ra) | r(rb)),
            Instr::Xor { rd, ra, rb } => self.write_reg(rd, r(ra) ^ r(rb)),
            Instr::Sltu { rd, ra, rb } => self.write_reg(rd, u32::from(r(ra) < r(rb))),
            Instr::Addi { rd, ra, imm } => self.write_reg(rd, r(ra).wrapping_add(imm as u32)),
            Instr::Slli { rd, ra, sh } => self.write_reg(rd, r(ra) << sh),
            Instr::Srli { rd, ra, sh } => self.write_reg(rd, r(ra) >> sh),
            Instr::Li { rd, imm } => self.write_reg(rd, imm),
            Instr::Lw { rd, ra, off } => {
                let addr = r(ra).wrapping_add(off as u32);
                if let Some(v) = self.load(addr) {
                    self.write_reg(rd, v);
                }
            }
            Instr::Sw { rs, ra, off } => {
                let addr = r(ra).wrapping_add(off as u32);
                let v = r(rs);
                self.store(addr, v);
            }
            Instr::Beq { ra, rb, target } => {
                if r(ra) == r(rb) {
                    next = target;
                }
            }
            Instr::Bne { ra, rb, target } => {
                if r(ra) != r(rb) {
                    next = target;
                }
            }
            Instr::Bltu { ra, rb, target } => {
                if r(ra) < r(rb) {
                    next = target;
                }
            }
            Instr::Jal { rd, target } => {
                self.write_reg(rd, (self.pc + 1) as u32);
                next = target;
            }
            Instr::Jr { ra } => {
                next = r(ra) as usize;
            }
            Instr::Halt => {
                self.halted = true;
                return;
            }
            Instr::Nop => {}
        }
        if next > self.program.len() {
            self.trap(Fault::BadPc(next));
            return;
        }
        self.pc = next;
    }
}

impl Module for SoftCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _ctx: &TickContext) {
        for _ in 0..self.ipc {
            if self.halted {
                break;
            }
            self.step();
        }
    }

    fn reset(&mut self) {
        self.regs = [0; 16];
        self.pc = 0;
        self.halted = false;
        self.fault = None;
        self.instructions = 0;
        for w in &mut self.scratch {
            *w = 0;
        }
    }

    /// A halted (or faulted) core retires nothing, forever: ticks are
    /// no-ops until a reset, which re-dirties every activity cache. A
    /// running core is never idle — even a busy-wait loop advances `pc`
    /// and the retired-instruction count.
    fn activity(&self) -> Activity {
        Activity::idle_if(self.halted)
    }

    /// No external channel can change a core's activity (firmware polls
    /// MMIO by executing instructions; nothing pushes into the core), so
    /// the never-woken handle just lets the kernel cache the halted state.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;
    use netfpga_core::regs::{shared, RamRegisters};

    fn core(src: &str) -> SoftCore {
        SoftCore::new("cpu", assemble(src).unwrap(), 256, None, 1)
    }

    #[test]
    fn arithmetic_loop_sum_1_to_10() {
        let mut c = core(
            r"
            li r1, 10
            li r2, 0
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ",
        );
        c.run_to_halt(1000);
        assert!(c.halted());
        assert_eq!(c.reg(2), 55);
        assert!(c.fault().is_none());
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut c = core("li r0, 99\naddi r0, r0, 5\nhalt");
        c.run_to_halt(10);
        assert_eq!(c.reg(0), 0);
    }

    #[test]
    fn scratch_memory_roundtrip() {
        let mut c = core(
            r"
            li r1, 0x10
            li r2, 0xabcd
            sw r2, (r1)
            lw r3, (r1)
            lw r4, 0x10(r0)
            halt
        ",
        );
        c.run_to_halt(10);
        assert_eq!(c.reg(3), 0xabcd);
        assert_eq!(c.reg(4), 0xabcd);
        assert_eq!(c.scratch_word(0x10), 0xabcd);
    }

    #[test]
    fn call_and_return() {
        let mut c = core(
            r"
            li r1, 5
            jal r15, double
            mv r3, r2
            halt
        double:
            add r2, r1, r1
            jr r15
        ",
        );
        c.run_to_halt(20);
        assert_eq!(c.reg(3), 10);
    }

    #[test]
    fn gcd_program() {
        // Euclid via subtraction: gcd(r1, r2) -> r1.
        let src = r"
        loop:
            beq r2, r0, done
            bltu r1, r2, swap
            sub r1, r1, r2
            j loop
        swap:
            mv r3, r1
            mv r1, r2
            mv r2, r3
            j loop
        done:
            halt
        ";
        for (a, b, g) in [(48u32, 36, 12), (17, 5, 1), (0, 7, 7), (100, 100, 100)] {
            let mut c = core(src);
            c.set_reg(1, a);
            c.set_reg(2, b);
            c.run_to_halt(10_000);
            assert!(c.halted());
            assert_eq!(c.reg(1).max(c.reg(2)), g, "gcd({a},{b})");
        }
    }

    #[test]
    fn faults_halt_the_core() {
        let mut c = core("li r1, 0x1000000\nlw r2, (r1)\nhalt");
        c.run_to_halt(10);
        assert!(matches!(c.fault(), Some(Fault::BadAddress(_))));
        let mut c = core("li r1, 2\nlw r2, (r1)\nhalt");
        c.run_to_halt(10);
        assert!(matches!(c.fault(), Some(Fault::Misaligned(2))));
        // MMIO access with no window mapped is also a fault.
        let mut c = core("li r1, 0x40000000\nlw r2, (r1)\nhalt");
        c.run_to_halt(10);
        assert!(matches!(c.fault(), Some(Fault::BadAddress(_))));
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut c = core("addi r1, r0, 1");
        c.run_to_halt(10);
        assert!(c.halted());
        assert!(c.fault().is_none());
        assert_eq!(c.reg(1), 1);
    }

    #[test]
    fn mmio_window_reads_and_writes_registers() {
        let map = AddressMap::new();
        map.mount(
            "scratchregs",
            0x100,
            0x100,
            shared(RamRegisters::new(0x100)),
        );
        let map = Rc::new(map);
        map.write(0x110, 7);
        let program = assemble(
            r"
            li r1, 0x40000110   ; MMIO_BASE + 0x110
            lw r2, (r1)         ; read register
            slli r2, r2, 1
            sw r2, 4(r1)        ; write doubled value to next register
            halt
        ",
        )
        .unwrap();
        let mut c = SoftCore::new("cpu", program, 64, Some(map.clone()), 1);
        c.run_to_halt(100);
        assert!(c.fault().is_none());
        assert_eq!(c.reg(2), 14);
        assert_eq!(map.read(0x114), 14);
    }

    #[test]
    fn ipc_scales_per_tick() {
        use netfpga_core::sim::{Simulator, TickContext};
        let _ = TickContext {
            now: netfpga_core::time::Time::ZERO,
            cycle: 0,
            period: netfpga_core::time::Time::from_ns(5),
        };
        let program = assemble("loop: addi r1, r1, 1\nj loop").unwrap();
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", netfpga_core::time::Frequency::mhz(100));
        let fast = SoftCore::new("fast", program.clone(), 64, None, 4);
        sim.add_module(clk, fast);
        sim.run_cycles(clk, 100);
        // 4 ipc x 100 cycles = 400 instructions = 200 loop iterations; we
        // can't reach into the moved module, so run a second core manually.
        let mut slow = SoftCore::new("slow", program, 64, None, 1);
        for _ in 0..400 {
            slow.step();
        }
        assert_eq!(slow.reg(1), 200);
        assert_eq!(slow.instructions(), 400);
    }
}
