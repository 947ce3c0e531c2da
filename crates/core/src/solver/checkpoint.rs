//! Versioned, checksummed solver checkpoints (DESIGN.md §13).
//!
//! A [`Checkpoint`] captures everything the ADMM loop needs to continue
//! from the end of iteration `iters_done` with **bit-identical** results:
//! the factor matrices, the ADMM scaled duals `Y⁽ⁿ⁾·(1/η)` (`y_mul`),
//! the penalty `η` *after* that iteration's schedule update, the size of
//! the observed support it was solving, and the convergence trace so far.
//! Gram matrices, the `B`-update scratch and the residual are *not*
//! stored — the solver recomputes all three from the factors before their
//! first read, deterministically, so omitting them cannot change a bit.
//!
//! ## On-disk layout (version 2, all integers little-endian)
//!
//! ```text
//! magic   b"DTCK"
//! version u32 (= 2)
//! config  rank u64 · λ α η₀ ρ η_max (f64 bits) · max_iters u64 ·
//!         tol (f64 bits) · eigen_k u64 · seed u64 ·
//!         nonneg u8 · partition u8 (0 = Greedy, 1 = EqualWidth) ·
//!         reserved u8 (was use_csf: written 0, ignored on read) ·
//!         reserved u8 (was fused: written 1, ignored on read)
//! shape   order u64, then one u64 per mode
//! cursor  iters_done u64 · eta (f64 bits)
//! factors per mode: rows u64 · cols u64 · rows×cols f64 bits
//! y_mul   same encoding as factors
//! support nnz u64
//! trace   npoints u64, then per point: iter u64 · seconds · train_rmse ·
//!         factor_delta (f64 bits)
//! check   FNV-1a 64 checksum over every preceding byte
//! ```
//!
//! Version 1 stored the residual values after `nnz` (`nnz` f64 bits in
//! observed-entry order). It still reads: the block is length-checked,
//! covered by the checksum, and skipped — every stored value equalled
//! `T − [[A…]]` of the file's own factors.
//!
//! Floats are stored as `f64::to_bits`, so a round-trip is exact for
//! every value including negative zero and NaN payloads. The checksum is
//! verified *before* any field is parsed: a corrupt or truncated file is
//! rejected with a typed [`CheckpointError`], never deserialized into
//! garbage factors.
//!
//! The execution-environment fields of [`AdmmConfig`] (`exec`,
//! `checkpoint`) are deliberately **not** serialized: a checkpoint must
//! resume bit-identically on any host backend, so the reader fills them
//! with the defaults (`exec` from `DISTENC_THREADS`, no follow-on
//! checkpoint policy) and `resume` overlays the resuming solver's own. The two
//! reserved bytes keep files written while a CSF switch and a fusion
//! switch were stored there readable under the same version: those
//! carried 0 or 1, and either is ignored — the solver has one schedule,
//! and both switches gave the same bits.

use super::SolverState;
use crate::config::AdmmConfig;
use crate::trace::{ConvergenceTrace, TracePoint};
use distenc_linalg::Mat;
use distenc_partition::PartitionStrategy;

/// File-format magic: "DisTenC ChecKpoint".
const MAGIC: [u8; 4] = *b"DTCK";
/// Current format version; every earlier one still reads.
const VERSION: u32 = 2;

/// Why a checkpoint could not be read or written.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the underlying error).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the file's contents.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
    /// The file ends before the declared data does.
    Truncated,
    /// A field holds a value no writer could have produced (e.g. a zero
    /// rank or mismatched factor shapes).
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a DisTenC checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads ≤ {VERSION})")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A complete snapshot of the solver loop after `iters_done` iterations.
/// See the module docs for the recovery contract and the byte layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The solve's configuration (environment fields reset on read — see
    /// the module docs).
    pub config: AdmmConfig,
    /// Shape of the observed tensor the solve ran on.
    pub(crate) shape: Vec<usize>,
    /// Iterations completed when the snapshot was taken.
    pub iters_done: usize,
    /// ADMM penalty `η` *after* iteration `iters_done`'s schedule update.
    pub(crate) eta: f64,
    /// Factor matrices `A⁽ⁿ⁾`, one per mode.
    pub factors: Vec<Mat>,
    /// Scaled duals `Y⁽ⁿ⁾·(1/η)`, one per mode.
    pub(crate) y_mul: Vec<Mat>,
    /// Entries of the observed tensor the solve ran on.
    pub nnz: usize,
    /// Convergence trace up to and including iteration `iters_done`.
    pub trace: ConvergenceTrace,
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty to
/// catch torn writes and bit rot (this is an integrity check, not an
/// adversarial MAC).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn mat(&mut self, m: &Mat) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &v in m.as_slice() {
            self.f64(v);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Result<T> = std::result::Result<T, CheckpointError>;

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A u64 that must fit in usize and stay under a sanity bound
    /// (corruption the checksum cannot catch only exists for files we
    /// did not write; the bound keeps even those from causing huge
    /// allocations).
    fn len(&mut self, what: &str) -> Result<usize> {
        let v = self.u64()?;
        // No snapshot field can plausibly exceed the remaining bytes.
        if v > self.buf.len() as u64 {
            return Err(CheckpointError::Malformed(format!("{what} length {v} is absurd")));
        }
        Ok(v as usize)
    }
    /// A count of the 8-byte words that follow. A file whose checksum was
    /// recomputed can still lie about it, so a count the bytes left
    /// cannot hold is [`CheckpointError::Truncated`] before anything is
    /// sized by it.
    fn words(&self, n: usize) -> Result<usize> {
        if n > (self.buf.len() - self.pos) / 8 {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }
    fn mat(&mut self) -> Result<Mat> {
        let rows = self.len("matrix rows")?;
        let cols = self.len("matrix cols")?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| CheckpointError::Malformed("matrix size overflow".into()))?;
        let mut data = Vec::with_capacity(self.words(n)?);
        for _ in 0..n {
            data.push(self.f64()?);
        }
        Ok(Mat::from_vec(rows, cols, data))
    }
}

impl Checkpoint {
    /// Snapshot `st` after `iters_done` completed iterations of the solve
    /// `cfg` describes: the shape is its model's, the support size its own
    /// (a resuming [`super::run`] is the inverse).
    pub(crate) fn capture(
        cfg: &AdmmConfig,
        st: &SolverState,
        iters_done: usize,
        trace: &ConvergenceTrace,
    ) -> Checkpoint {
        Checkpoint {
            config: cfg.clone(),
            shape: st.model.shape(),
            iters_done,
            eta: st.eta,
            factors: st.model.factors().to_vec(),
            y_mul: st.y_mul.clone(),
            nnz: st.nnz,
            trace: trace.clone(),
        }
    }

    /// Length of the version-2 image: magic, version and four flag
    /// bytes, then 8-byte words — ten of config, the shape and its
    /// length, `iters_done` and η, each matrix with its two dimensions,
    /// the support size, the trace and its length, and the checksum.
    fn encoded_len(&self) -> usize {
        let mats: usize =
            self.factors.iter().chain(&self.y_mul).map(|m| 2 + m.rows() * m.cols()).sum();
        let words = 10 + 1 + self.shape.len() + 2 + mats + 1 + 1 + 4 * self.trace.points.len() + 1;
        4 + 4 + 4 + 8 * words
    }

    /// Serialize to the version-2 byte format (checksum included), into a
    /// buffer sized once from the image's length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut w = Writer { buf: Vec::with_capacity(len) };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        let c = &self.config;
        w.u64(c.rank as u64);
        w.f64(c.lambda);
        w.f64(c.alpha);
        w.f64(c.eta0);
        w.f64(c.rho);
        w.f64(c.eta_max);
        w.u64(c.max_iters as u64);
        w.f64(c.tol);
        w.u64(c.eigen_k as u64);
        w.u64(c.seed);
        w.u8(u8::from(c.nonneg));
        w.u8(match c.partition {
            PartitionStrategy::Greedy => 0,
            PartitionStrategy::EqualWidth => 1,
        });
        w.u8(0); // reserved (was use_csf)
        w.u8(1); // reserved (was fused)
        w.u64(self.shape.len() as u64);
        for &d in &self.shape {
            w.u64(d as u64);
        }
        w.u64(self.iters_done as u64);
        w.f64(self.eta);
        for m in &self.factors {
            w.mat(m);
        }
        for m in &self.y_mul {
            w.mat(m);
        }
        w.u64(self.nnz as u64);
        w.u64(self.trace.points.len() as u64);
        for p in &self.trace.points {
            w.u64(p.iter as u64);
            w.f64(p.seconds);
            w.f64(p.train_rmse);
            w.f64(p.factor_delta);
        }
        let sum = fnv1a(&w.buf);
        w.u64(sum);
        debug_assert_eq!(w.buf.len(), len, "encoded_len disagrees with the image");
        w.buf
    }

    /// Parse and validate the version-2 or version-1 byte format. The
    /// checksum is verified over the whole payload before any field is
    /// interpreted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        // Magic and version first so "not a checkpoint at all" and "from
        // a newer build" beat the generic corruption error.
        if bytes.len() < MAGIC.len() {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(CheckpointError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if !(1..=VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader { buf: payload, pos: 8 };
        let rank = r.len("rank")?;
        let lambda = r.f64()?;
        let alpha = r.f64()?;
        let eta0 = r.f64()?;
        let rho = r.f64()?;
        let eta_max = r.f64()?;
        let max_iters = r.len("max_iters")?;
        let tol = r.f64()?;
        let eigen_k = r.len("eigen_k")?;
        let seed = r.u64()?;
        let nonneg = r.u8()? != 0;
        let partition = match r.u8()? {
            0 => PartitionStrategy::Greedy,
            1 => PartitionStrategy::EqualWidth,
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "unknown partition strategy tag {other}"
                )))
            }
        };
        r.u8()?; // reserved (was use_csf)
        r.u8()?; // reserved (was fused)
        let config = AdmmConfig {
            rank,
            lambda,
            alpha,
            eta0,
            rho,
            eta_max,
            max_iters,
            tol,
            eigen_k,
            seed,
            nonneg,
            partition,
            // Environment fields: not serialized, reset to this host's
            // defaults (see the module docs).
            exec: distenc_dataflow::ExecMode::default(),
            checkpoint: None,
        };
        if config.rank == 0 {
            return Err(CheckpointError::Malformed("rank is zero".into()));
        }

        let order = r.len("order")?;
        let order = r.words(order)?;
        let mut shape = Vec::with_capacity(order);
        for _ in 0..order {
            shape.push(r.u64()? as usize);
        }
        let iters_done = r.len("iters_done")?;
        let eta = r.f64()?;
        let mut factors = Vec::with_capacity(order);
        for _ in 0..order {
            factors.push(r.mat()?);
        }
        let mut y_mul = Vec::with_capacity(order);
        for _ in 0..order {
            y_mul.push(r.mat()?);
        }
        let nnz = if version == 1 {
            // The residual values: checked, then skipped.
            let nnz = r.len("residual nnz")?;
            r.take(8 * r.words(nnz)?)?;
            nnz
        } else {
            r.u64()? as usize
        };
        let npoints = r.len("trace points")?;
        let mut trace = ConvergenceTrace::new();
        for _ in 0..npoints {
            let iter = r.u64()? as usize;
            let seconds = r.f64()?;
            let train_rmse = r.f64()?;
            let factor_delta = r.f64()?;
            trace.push(TracePoint { iter, seconds, train_rmse, factor_delta });
        }
        if r.pos != payload.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after the trace",
                payload.len() - r.pos
            )));
        }

        // Cross-field sanity: a writer can only produce consistent
        // shapes, so reject anything else before it reaches the solver.
        for (n, f) in factors.iter().enumerate() {
            if f.rows() != shape.get(n).copied().unwrap_or(0) || f.cols() != config.rank {
                return Err(CheckpointError::Malformed(format!(
                    "factor {n} is {}×{}, expected {}×{}",
                    f.rows(),
                    f.cols(),
                    shape.get(n).copied().unwrap_or(0),
                    config.rank
                )));
            }
        }
        for (n, y) in y_mul.iter().enumerate() {
            if y.rows() != shape[n] || y.cols() != config.rank {
                return Err(CheckpointError::Malformed(format!(
                    "dual {n} is {}×{}, expected {}×{}",
                    y.rows(),
                    y.cols(),
                    shape[n],
                    config.rank
                )));
            }
        }
        if !(eta.is_finite() && eta > 0.0) {
            return Err(CheckpointError::Malformed(format!("penalty η = {eta}")));
        }

        Ok(Checkpoint {
            config,
            shape,
            iters_done,
            eta,
            factors,
            y_mul,
            nnz,
            trace,
        })
    }

    /// Write atomically and durably to `path`: the bytes land in a `.tmp`
    /// sibling, are synced to the device (`sync_all`) and only then
    /// renamed into place, and the rename is synced through the parent
    /// directory. A crash mid-write leaves the previous checkpoint or the
    /// new one — never a torn file, and never a rename that outlives the
    /// bytes it names. A `.tmp` left by a write that died is never read.
    pub fn write_file(&self, path: &std::path::Path) -> Result<()> {
        use std::io::Write;
        let io = |p: &std::path::Path, e: std::io::Error| {
            CheckpointError::Io(format!("{}: {e}", p.display()))
        };
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp).map_err(|e| io(&tmp, e))?;
        file.write_all(&bytes).and_then(|()| file.sync_all()).map_err(|e| io(&tmp, e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io(path, e))?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => std::path::Path::new("."),
        };
        std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io(dir, e))
    }

    /// Read and validate a checkpoint file.
    pub fn read_file(path: &std::path::Path) -> Result<Checkpoint> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Checkpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut trace = ConvergenceTrace::new();
        trace.push(TracePoint { iter: 0, seconds: 0.5, train_rmse: 0.9, factor_delta: 1.1 });
        trace.push(TracePoint { iter: 1, seconds: 1.25, train_rmse: 0.4, factor_delta: 0.3 });
        Checkpoint {
            config: AdmmConfig {
                rank: 2,
                partition: PartitionStrategy::EqualWidth,
                ..AdmmConfig::default()
            },
            shape: vec![3, 2],
            iters_done: 2,
            eta: 1.1025,
            factors: vec![
                Mat::from_vec(3, 2, vec![1.0, -0.0, 3.5e-310, f64::MIN_POSITIVE, 2.0, -7.25]),
                Mat::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
            ],
            y_mul: vec![Mat::zeros(3, 2), Mat::from_vec(2, 2, vec![-1.0, 0.5, 0.0, 9.0])],
            nnz: 3,
            trace,
        }
    }

    /// `ck`'s version-1 image: its version-2 bytes stamped 1, with
    /// `residual` (one value per entry) after the support size and the
    /// checksum recomputed.
    fn v1_image(ck: &Checkpoint, residual: &[f64]) -> Vec<u8> {
        assert_eq!(residual.len(), ck.nnz);
        let v2 = ck.to_bytes();
        // The trace and the checksum follow the support size.
        let trace_at = v2.len() - (8 + 32 * ck.trace.points.len()) - 8;
        let mut bytes = v2[..trace_at].to_vec();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes.extend(residual.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        bytes.extend_from_slice(&v2[trace_at..v2.len() - 8]);
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// The sample's two images: version 2, and the version 1 that stored
    /// three residual values.
    fn images() -> [(u32, Vec<u8>); 2] {
        let ck = sample();
        [(2, ck.to_bytes()), (1, v1_image(&ck, &[0.25, -0.5, 1.0e-17]))]
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ck = sample();
        let bytes = ck.to_bytes();
        assert_eq!(bytes.capacity(), bytes.len(), "the image is one buffer of its own length");
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.shape, ck.shape);
        assert_eq!(back.iters_done, ck.iters_done);
        assert_eq!(back.eta.to_bits(), ck.eta.to_bits());
        for (a, b) in back.factors.iter().zip(&ck.factors) {
            let (a, b) = (a.as_slice(), b.as_slice());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(back.nnz, 3);
        assert_eq!(back.trace, ck.trace);
        assert_eq!(back.config.rank, 2);
        assert_eq!(back.config.partition, PartitionStrategy::EqualWidth);
        assert_eq!(back.config.checkpoint, None);
    }

    #[test]
    fn a_version_1_image_reads_as_the_version_2_image_of_its_state() {
        // The residual block is length-checked and skipped; its values
        // leave no trace in what is read.
        let [(_, v2), (_, v1)] = images();
        assert_eq!(v1.len(), v2.len() + 3 * 8);
        assert_eq!(Checkpoint::from_bytes(&v1).unwrap(), Checkpoint::from_bytes(&v2).unwrap());
        // A support size the residual block does not back is no image.
        let mut short = v1_image(&Checkpoint { nnz: 2, ..sample() }, &[0.25, -0.5]);
        let nnz_at = short.len() - 8 - (8 + 64) - 2 * 8 - 8;
        short[nnz_at..nnz_at + 8].copy_from_slice(&3u64.to_le_bytes());
        let body = short.len() - 8;
        let sum = fnv1a(&short[..body]);
        short[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(Checkpoint::from_bytes(&short).is_err());
    }

    #[test]
    fn every_corrupted_byte_is_rejected_with_a_typed_error() {
        for (version, bytes) in images() {
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0xA5;
                let err = Checkpoint::from_bytes(&bad)
                    .expect_err(&format!("v{version}: flipping byte {i} must not parse"));
                assert!(
                    matches!(
                        err,
                        CheckpointError::ChecksumMismatch { .. }
                            | CheckpointError::BadMagic
                            | CheckpointError::UnsupportedVersion(_)
                    ),
                    "v{version} byte {i}: unexpected error {err:?}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        for (version, bytes) in images() {
            for keep in 0..bytes.len() {
                let err = Checkpoint::from_bytes(&bytes[..keep]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
                    ),
                    "v{version} keep {keep}: unexpected error {err:?}"
                );
            }
        }
    }

    #[test]
    fn a_lying_length_under_a_restamped_checksum_is_a_typed_error() {
        // FNV-1a is no MAC: anyone can rewrite a length field and the
        // trailer after it. The first factor's `rows` and `cols` follow
        // the cursor's `eta`; the shape's `order` and, in version 1, the
        // residual's `nnz` are the other counts that size what is read. A
        // long version-1 residual makes `rows·cols` terabytes: sized
        // before it is read, that allocation aborts the process.
        let ck = Checkpoint { nnz: 1 << 16, ..sample() };
        for (version, bytes) in [(2, ck.to_bytes()), (1, v1_image(&ck, &vec![0.25; 1 << 16]))] {
            let at = |a: u64, b: u64| {
                let field = [a.to_le_bytes(), b.to_le_bytes()].concat();
                bytes.windows(16).position(|w| w == field).unwrap()
            };
            let factor = at(ck.eta.to_bits(), 3) + 8;
            let mut lies = vec![("factor", vec![factor, factor + 8]), ("order", vec![at(2, 3)])];
            if version == 1 {
                lies.push(("nnz", vec![at(1 << 16, 0.25f64.to_bits())]));
            }
            // The payload's length: each count alone passes the "absurd"
            // bound.
            let huge = (bytes.len() as u64 - 8).to_le_bytes();
            for (what, fields) in lies {
                let mut bad = bytes.clone();
                for f in fields {
                    bad[f..f + 8].copy_from_slice(&huge);
                }
                let body = bad.len() - 8;
                let sum = fnv1a(&bad[..body]);
                bad[body..].copy_from_slice(&sum.to_le_bytes());
                let err = Checkpoint::from_bytes(&bad).unwrap_err();
                assert_eq!(err, CheckpointError::Truncated, "v{version} {what}");
            }
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn file_round_trip_and_atomic_write() {
        let dir = std::env::temp_dir().join("distenc_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solve.ckpt");
        let ck = sample();
        ck.write_file(&path).unwrap();
        // Overwrite with a newer snapshot; the rename replaces in place.
        let mut ck2 = ck.clone();
        ck2.iters_done = 7;
        ck2.write_file(&path).unwrap();
        let back = Checkpoint::read_file(&path).unwrap();
        assert_eq!(back.iters_done, 7);
        assert!(!path.with_extension("ckpt.tmp").exists(), "tmp file renamed away");
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            Checkpoint::read_file(&path),
            Err(CheckpointError::Io(_))
        ));
    }
}
