//! Binary wire codec for everything that travels between nodes.
//!
//! Hand-rolled (no serde): the encoded length *is* the paper's
//! "Java-serialized size", which drives every transfer-time computation in
//! the evaluation, so the codec and the cost model must be the same thing.
//! `CapturedState::wire_bytes()` (an arithmetic formula), the streaming
//! [`CountBuf`] counter, and the actual encoders all agree byte-for-byte —
//! property tests pin `encode_*(x).len() == x.wire_bytes()` for every
//! entity, which is what lets the runtime serialize **once** and use the
//! frame length as the byte metric everywhere.
//!
//! Encodable entities:
//! * [`CapturedState`] — SOD state messages (16-byte magic/kind header,
//!   u16-prefixed names, u32-prefixed value sequences),
//! * [`ClassDef`] — on-demand code shipping (the class-file-load-hook path),
//! * [`WireObject`] — on-demand heap object fetches and dirty write-backs.
//!
//! Layout discipline: little-endian fixed-width integers, length-prefixed
//! strings and sequences. Every `encode_*` has a matching `decode_*`;
//! property tests round-trip all of them. Decoders validate every declared
//! length against `buf.remaining()` **before** allocating, so corrupt or
//! adversarial prefixes produce a typed [`VmError::Decode`] rather than a
//! huge allocation; encoders reject payloads whose lengths overflow their
//! prefix width with [`VmError::Encode`], so encode and decode can never
//! disagree on layout.
//!
//! Buffer lifecycle: encoders can write into pooled buffers
//! ([`BufferPool`]) checked out at encode time and recycled after the last
//! delivery (`Bytes::try_into_mut` reclaims the allocation when the frame's
//! refcount drops to one). Per-link sends batch multiple payloads into one
//! length-prefixed [`FrameBatch`] per delivery window.

use std::sync::Mutex;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::capture::{CapturedFrame, CapturedState, CapturedStatics, CapturedValue};
use crate::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef};
use crate::error::{VmError, VmResult};
use crate::instr::{Cmp, Instr, SwitchTable};
use crate::value::{ObjId, TypeOf};

/// Magic word opening every framed state payload (`"SODW"` little-endian).
pub const STATE_MAGIC: u32 = 0x534F_4457;
/// Frame-kind discriminant for captured-state payloads.
pub const KIND_STATE: u32 = 1;

/// A heap object on the wire: the payload of an object-fault reply or a
/// dirty-object flush. References inside travel as home object ids.
#[derive(Clone, Debug, PartialEq)]
pub struct WireObject {
    /// Identity of the master copy on the home node. For objects created on
    /// a worker and flushed home for the first time this is a temporary id
    /// the home node remaps.
    pub home_id: ObjId,
    pub body: WireObjBody,
}

/// Body of a shipped object.
#[derive(Clone, Debug, PartialEq)]
pub enum WireObjBody {
    Obj {
        class: String,
        fields: Vec<CapturedValue>,
    },
    Arr {
        elems: Vec<CapturedValue>,
    },
    Str(String),
}

impl WireObject {
    /// Serialized size (the object-fetch transfer cost), counted without
    /// allocating. Equals `encode_object(self).len()`.
    pub fn wire_bytes(&self) -> u64 {
        let mut counter = CountBuf::default();
        let _ = put_object(&mut counter, self);
        counter.count()
    }
}

// ---------------------------------------------------------------------------
// Streaming size counter
// ---------------------------------------------------------------------------

/// A [`BufMut`] that discards bytes and only counts them: running an encoder
/// against a `CountBuf` yields the exact frame length without allocating.
/// This is how size queries on not-yet-encoded values stay allocation-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountBuf {
    count: u64,
}

impl CountBuf {
    /// Bytes the encoder would have written so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl BufMut for CountBuf {
    fn put_u8(&mut self, _v: u8) {
        self.count += 1;
    }
    fn put_u16_le(&mut self, _v: u16) {
        self.count += 2;
    }
    fn put_u32_le(&mut self, _v: u32) {
        self.count += 4;
    }
    fn put_u64_le(&mut self, _v: u64) {
        self.count += 8;
    }
    fn put_i64_le(&mut self, _v: i64) {
        self.count += 8;
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.count += s.len() as u64;
    }
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

/// Retain at most this many idle buffers (beyond that, drop to the allocator).
const POOL_MAX_IDLE: usize = 64;
/// Capacity pre-reserved for buffers minted when the pool is empty.
const POOL_SEED_CAPACITY: usize = 256;

/// A small free-list of encode buffers. Encoders check a [`BytesMut`] out,
/// fill it, and freeze it into the [`Bytes`] frame that travels; after the
/// final delivery [`BufferPool::recycle`] reclaims the allocation when the
/// frame was the last owner. Pool state never influences encoded bytes, so
/// reuse cannot perturb determinism.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Mutex<Vec<BytesMut>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer from the free list, or mint a fresh one.
    pub fn checkout(&self) -> BytesMut {
        self.free
            .lock()
            .expect("buffer pool lock")
            .pop()
            .unwrap_or_else(|| BytesMut::with_capacity(POOL_SEED_CAPACITY))
    }

    /// Return a delivered frame's allocation to the free list. Succeeds only
    /// when `frame` is the last handle on its allocation (clones still in
    /// flight keep it alive); returns whether the buffer was reclaimed.
    pub fn recycle(&self, frame: Bytes) -> bool {
        match frame.try_into_mut() {
            Ok(mut buf) => {
                buf.clear();
                self.give_back(buf);
                true
            }
            Err(_) => false,
        }
    }

    /// Return a checked-out buffer that never became a frame.
    pub fn give_back(&self, mut buf: BytesMut) {
        buf.clear();
        let mut free = self.free.lock().expect("buffer pool lock");
        if free.len() < POOL_MAX_IDLE {
            free.push(buf);
        }
    }

    /// Idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("buffer pool lock").len()
    }
}

// ---------------------------------------------------------------------------
// Frame batches (one length-prefixed frame per delivery window)
// ---------------------------------------------------------------------------

/// An ordered batch of encoded frames travelling over one link in one
/// delivery window, wire form `[u32 n] ([u32 len_i] [payload_i])*`.
/// [`FrameBatch::payload_bytes`] excludes the framing overhead, so batching
/// leaves every byte metric numerically identical to per-payload sends.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameBatch {
    frames: Vec<Bytes>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one encoded payload frame.
    pub fn push(&mut self, frame: Bytes) {
        self.frames.push(frame);
    }

    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The batched frames, in push order.
    pub fn frames(&self) -> &[Bytes] {
        &self.frames
    }

    /// Consume the batch, yielding the owned frames (e.g. to recycle their
    /// allocations into a [`BufferPool`] after the final delivery).
    pub fn into_frames(self) -> Vec<Bytes> {
        self.frames
    }

    /// Sum of payload lengths — the byte metric, identical to summing
    /// `wire_bytes()` over the original values.
    pub fn payload_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.len() as u64).sum()
    }

    /// Encode the batch into its single length-prefixed delivery frame.
    pub fn encode(&self) -> VmResult<Bytes> {
        let mut buf =
            BytesMut::with_capacity(4 + self.frames.len() * 4 + self.payload_bytes() as usize);
        self.put_into(&mut buf)?;
        Ok(buf.freeze())
    }

    /// Encode into a pooled buffer (see [`BufferPool`]).
    pub fn encode_pooled(&self, pool: &BufferPool) -> VmResult<Bytes> {
        let mut buf = pool.checkout();
        self.put_into(&mut buf)?;
        Ok(buf.freeze())
    }

    fn put_into<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        buf.put_u32_le(seq_len32(self.frames.len(), "frame batch too large")?);
        for f in &self.frames {
            buf.put_u32_le(seq_len32(f.len(), "batched frame too large")?);
            buf.put_slice(f);
        }
        Ok(())
    }

    /// Decode a delivery frame back into its payload frames. Zero-copy: the
    /// returned frames are sub-views of `buf`'s allocation.
    pub fn decode(mut buf: Bytes) -> VmResult<FrameBatch> {
        let n = get_u32(&mut buf)? as usize;
        ensure_seq(&buf, n, 4, "frame batch count overruns buffer")?;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            let len = get_u32(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(VmError::Decode("batched frame truncated"));
            }
            frames.push(buf.split_to(len));
        }
        Ok(FrameBatch { frames })
    }
}

impl FromIterator<Bytes> for FrameBatch {
    fn from_iter<I: IntoIterator<Item = Bytes>>(iter: I) -> Self {
        FrameBatch {
            frames: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a FrameBatch {
    type Item = &'a Bytes;
    type IntoIter = std::slice::Iter<'a, Bytes>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

// ---------------------------------------------------------------------------
// Primitive helpers
// ---------------------------------------------------------------------------

/// Check a declared sequence length against what the buffer can possibly
/// hold (`min_elem` = smallest encoded element) *before* allocating.
fn ensure_seq(buf: &Bytes, n: usize, min_elem: usize, what: &'static str) -> VmResult<()> {
    match n.checked_mul(min_elem) {
        Some(need) if need <= buf.remaining() => Ok(()),
        _ => Err(VmError::Decode(what)),
    }
}

fn seq_len32(n: usize, what: &'static str) -> VmResult<u32> {
    u32::try_from(n).map_err(|_| VmError::Encode(what))
}

fn seq_len16(n: usize, what: &'static str) -> VmResult<u16> {
    u16::try_from(n).map_err(|_| VmError::Encode(what))
}

fn put_str<B: BufMut>(buf: &mut B, s: &str) -> VmResult<()> {
    buf.put_u32_le(seq_len32(s.len(), "string exceeds u32 length prefix")?);
    buf.put_slice(s.as_bytes());
    Ok(())
}

fn get_str(buf: &mut Bytes) -> VmResult<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(VmError::Decode("string truncated"));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| VmError::Decode("invalid utf8"))
}

/// Name strings in state frames use a compact u16 prefix.
fn put_str16<B: BufMut>(buf: &mut B, s: &str) -> VmResult<()> {
    buf.put_u16_le(seq_len16(s.len(), "name exceeds u16 length prefix")?);
    buf.put_slice(s.as_bytes());
    Ok(())
}

fn get_str16(buf: &mut Bytes) -> VmResult<String> {
    let len = get_u16(buf)? as usize;
    if buf.remaining() < len {
        return Err(VmError::Decode("string truncated"));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| VmError::Decode("invalid utf8"))
}

fn get_u8(buf: &mut Bytes) -> VmResult<u8> {
    if buf.remaining() < 1 {
        return Err(VmError::Decode("u8 truncated"));
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut Bytes) -> VmResult<u16> {
    if buf.remaining() < 2 {
        return Err(VmError::Decode("u16 truncated"));
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut Bytes) -> VmResult<u32> {
    if buf.remaining() < 4 {
        return Err(VmError::Decode("u32 truncated"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> VmResult<u64> {
    if buf.remaining() < 8 {
        return Err(VmError::Decode("u64 truncated"));
    }
    Ok(buf.get_u64_le())
}

fn get_i64(buf: &mut Bytes) -> VmResult<i64> {
    Ok(get_u64(buf)? as i64)
}

fn get_f64(buf: &mut Bytes) -> VmResult<f64> {
    Ok(f64::from_bits(get_u64(buf)?))
}

// ---------------------------------------------------------------------------
// CapturedValue
// ---------------------------------------------------------------------------

fn put_captured_value<B: BufMut>(buf: &mut B, v: &CapturedValue) {
    match v {
        CapturedValue::Null => buf.put_u8(0),
        CapturedValue::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        CapturedValue::Num(n) => {
            buf.put_u8(2);
            buf.put_u64_le(n.to_bits());
        }
        CapturedValue::HomeRef(id) => {
            buf.put_u8(3);
            buf.put_u64_le(u64::from(*id));
        }
    }
}

fn get_captured_value(buf: &mut Bytes) -> VmResult<CapturedValue> {
    Ok(match get_u8(buf)? {
        0 => CapturedValue::Null,
        1 => CapturedValue::Int(get_i64(buf)?),
        2 => CapturedValue::Num(get_f64(buf)?),
        3 => CapturedValue::HomeRef(get_u64(buf)? as ObjId),
        _ => return Err(VmError::Decode("bad CapturedValue tag")),
    })
}

fn put_values<B: BufMut>(buf: &mut B, vs: &[CapturedValue]) -> VmResult<()> {
    buf.put_u32_le(seq_len32(vs.len(), "value sequence exceeds u32 prefix")?);
    for v in vs {
        put_captured_value(buf, v);
    }
    Ok(())
}

fn get_values(buf: &mut Bytes) -> VmResult<Vec<CapturedValue>> {
    let n = get_u32(buf)? as usize;
    ensure_seq(buf, n, 1, "value count overruns buffer")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_captured_value(buf)?);
    }
    Ok(out)
}

/// Statics value sequences use a compact u16 prefix.
fn put_values16<B: BufMut>(buf: &mut B, vs: &[CapturedValue]) -> VmResult<()> {
    buf.put_u16_le(seq_len16(vs.len(), "value sequence exceeds u16 prefix")?);
    for v in vs {
        put_captured_value(buf, v);
    }
    Ok(())
}

fn get_values16(buf: &mut Bytes) -> VmResult<Vec<CapturedValue>> {
    let n = get_u16(buf)? as usize;
    ensure_seq(buf, n, 1, "value count overruns buffer")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_captured_value(buf)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// CapturedState
// ---------------------------------------------------------------------------

/// Write a captured state message to any [`BufMut`] sink. The layout is
/// sized so the frame length equals `CapturedState::wire_bytes()` exactly:
/// a 16-byte `[magic][kind][nframes][nstatics]` header, then per frame
/// `[u16 class_len][class][u16 method_len][method][u32 pc][u32 nlocals]
/// [locals]` (12 fixed bytes) and per statics entry
/// `[u16 class_len][class][u16 nvalues][values]` (4 fixed bytes).
fn put_state<B: BufMut>(buf: &mut B, state: &CapturedState) -> VmResult<()> {
    buf.put_u32_le(STATE_MAGIC);
    buf.put_u32_le(KIND_STATE);
    buf.put_u32_le(seq_len32(
        state.frames.len(),
        "frame count exceeds u32 prefix",
    )?);
    buf.put_u32_le(seq_len32(
        state.statics.len(),
        "statics count exceeds u32 prefix",
    )?);
    for f in &state.frames {
        put_str16(buf, &f.class)?;
        put_str16(buf, &f.method)?;
        buf.put_u32_le(f.pc);
        put_values(buf, &f.locals)?;
    }
    for s in &state.statics {
        put_str16(buf, &s.class)?;
        put_values16(buf, &s.values)?;
    }
    Ok(())
}

/// Encode a captured state message into a fresh exact-size buffer.
pub fn encode_state(state: &CapturedState) -> VmResult<Bytes> {
    let mut buf = BytesMut::with_capacity(state.wire_bytes() as usize);
    put_state(&mut buf, state)?;
    Ok(buf.freeze())
}

/// Encode a captured state message into a pooled buffer.
pub fn encode_state_pooled(pool: &BufferPool, state: &CapturedState) -> VmResult<Bytes> {
    let mut buf = pool.checkout();
    put_state(&mut buf, state)?;
    Ok(buf.freeze())
}

/// Decode a captured state message, validating the frame header and every
/// declared length before allocating.
pub fn decode_state(mut buf: Bytes) -> VmResult<CapturedState> {
    if get_u32(&mut buf)? != STATE_MAGIC {
        return Err(VmError::Decode("bad state magic"));
    }
    if get_u32(&mut buf)? != KIND_STATE {
        return Err(VmError::Decode("bad state frame kind"));
    }
    let nframes = get_u32(&mut buf)? as usize;
    let nstatics = get_u32(&mut buf)? as usize;
    ensure_seq(&buf, nframes, 12, "frame count overruns buffer")?;
    // Statics follow the frames; their minimum footprint must fit too.
    ensure_seq(&buf, nstatics, 4, "statics count overruns buffer")?;
    let mut frames = Vec::with_capacity(nframes);
    for _ in 0..nframes {
        let class = get_str16(&mut buf)?;
        let method = get_str16(&mut buf)?;
        let pc = get_u32(&mut buf)?;
        let locals = get_values(&mut buf)?;
        frames.push(CapturedFrame {
            class,
            method,
            pc,
            locals,
        });
    }
    let mut statics = Vec::with_capacity(nstatics);
    for _ in 0..nstatics {
        let class = get_str16(&mut buf)?;
        let values = get_values16(&mut buf)?;
        statics.push(CapturedStatics { class, values });
    }
    Ok(CapturedState { frames, statics })
}

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------

fn put_object<B: BufMut>(buf: &mut B, obj: &WireObject) -> VmResult<()> {
    buf.put_u64_le(u64::from(obj.home_id));
    match &obj.body {
        WireObjBody::Obj { class, fields } => {
            buf.put_u8(0);
            put_str(buf, class)?;
            put_values(buf, fields)?;
        }
        WireObjBody::Arr { elems } => {
            buf.put_u8(1);
            put_values(buf, elems)?;
        }
        WireObjBody::Str(s) => {
            buf.put_u8(2);
            put_str(buf, s)?;
        }
    }
    Ok(())
}

/// Encode a shipped heap object.
pub fn encode_object(obj: &WireObject) -> VmResult<Bytes> {
    let mut buf = BytesMut::with_capacity(64);
    put_object(&mut buf, obj)?;
    Ok(buf.freeze())
}

/// Encode a shipped heap object into a pooled buffer.
pub fn encode_object_pooled(pool: &BufferPool, obj: &WireObject) -> VmResult<Bytes> {
    let mut buf = pool.checkout();
    put_object(&mut buf, obj)?;
    Ok(buf.freeze())
}

/// Decode a shipped heap object.
pub fn decode_object(mut buf: Bytes) -> VmResult<WireObject> {
    let home_id = get_u64(&mut buf)? as ObjId;
    let body = match get_u8(&mut buf)? {
        0 => WireObjBody::Obj {
            class: get_str(&mut buf)?,
            fields: get_values(&mut buf)?,
        },
        1 => WireObjBody::Arr {
            elems: get_values(&mut buf)?,
        },
        2 => WireObjBody::Str(get_str(&mut buf)?),
        _ => return Err(VmError::Decode("bad WireObject tag")),
    };
    Ok(WireObject { home_id, body })
}

// ---------------------------------------------------------------------------
// Object extraction / installation (home ↔ worker heap transfer)
// ---------------------------------------------------------------------------

use crate::heap::{Heap, ObjKind};
use crate::value::Value;

/// Extract object `id` from a heap as a shallow [`WireObject`]: primitive
/// slots by value, reference slots as home ids (nulled + flagged on
/// install). This is the home-side half of an object-fault reply.
pub fn extract_object(heap: &Heap, id: ObjId) -> VmResult<WireObject> {
    let obj = heap.get(id)?;
    let conv = |vs: &[Value]| -> Vec<CapturedValue> {
        vs.iter().map(|v| CapturedValue::from_value(*v)).collect()
    };
    let body = match &obj.kind {
        ObjKind::Obj { class, fields } => WireObjBody::Obj {
            class: class.to_string(),
            fields: conv(fields),
        },
        ObjKind::Arr { elems } => WireObjBody::Arr { elems: conv(elems) },
        ObjKind::Str(s) => WireObjBody::Str(s.clone()),
        ObjKind::Exception { message, .. } => WireObjBody::Str(message.clone()),
    };
    Ok(WireObject { home_id: id, body })
}

/// Extract the transitive closure of `id` (deep fetch / eager copy):
/// breadth-first over reference slots. Returns objects in BFS order, root
/// first.
pub fn extract_closure(heap: &Heap, id: ObjId) -> VmResult<Vec<WireObject>> {
    let mut seen = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    let mut out = Vec::new();
    seen.insert(id);
    queue.push_back(id);
    while let Some(cur) = queue.pop_front() {
        let wire = extract_object(heap, cur)?;
        let refs: Vec<ObjId> = match &wire.body {
            WireObjBody::Obj { fields, .. } => fields
                .iter()
                .filter_map(|v| match v {
                    CapturedValue::HomeRef(r) => Some(*r),
                    _ => None,
                })
                .collect(),
            WireObjBody::Arr { elems } => elems
                .iter()
                .filter_map(|v| match v {
                    CapturedValue::HomeRef(r) => Some(*r),
                    _ => None,
                })
                .collect(),
            WireObjBody::Str(_) => Vec::new(),
        };
        out.push(wire);
        for r in refs {
            if seen.insert(r) {
                queue.push_back(r);
            }
        }
    }
    Ok(out)
}

/// Install a shipped object into a worker heap as a cached copy: reference
/// slots become transfer-nulled values carrying their home identity (they
/// fault in on demand), and `home_id` is recorded for nested fault
/// resolution and write-back. If a copy of the same home object already
/// exists it is refreshed in place.
pub fn install_object(heap: &mut Heap, obj: &WireObject) -> VmResult<ObjId> {
    let conv =
        |vs: &[CapturedValue]| -> Vec<Value> { vs.iter().map(|v| v.to_nulled_value()).collect() };
    let kind = match &obj.body {
        // The decoded class name gets a fresh `Arc`; the interpreter
        // canonicalizes it to the loaded class's shared `Arc` on the first
        // slow resolve at any receiver-keyed inline-cache site.
        WireObjBody::Obj { class, fields } => ObjKind::Obj {
            class: class.as_str().into(),
            fields: conv(fields),
        },
        WireObjBody::Arr { elems } => ObjKind::Arr { elems: conv(elems) },
        WireObjBody::Str(s) => ObjKind::Str(s.clone()),
    };
    if let Some(existing) = heap.find_cached(obj.home_id) {
        let slot = heap.get_mut(existing)?;
        slot.kind = kind;
        slot.status = crate::heap::ObjStatus::Local;
        slot.dirty = false;
        return Ok(existing);
    }
    let id = match kind {
        ObjKind::Obj { class, fields } => heap.alloc_obj(class, fields),
        ObjKind::Arr { elems } => heap.alloc_arr_from(elems),
        ObjKind::Str(s) => heap.alloc_str(s),
        ObjKind::Exception { .. } => unreachable!("wire bodies never decode to exceptions"),
    };
    heap.set_home_id(id, obj.home_id)?;
    Ok(id)
}

/// Build the wire form of a *dirty* object for the write-back flush: values
/// convert refs to home ids where the local copy knows them; refs to
/// worker-created objects are encoded as `HomeRef(temp_base + local_id)` so
/// the home side can remap them after allocating masters (see the runtime's
/// flush protocol). Transfer-nulled refs re-export the home identity they
/// carry.
pub fn extract_dirty(heap: &Heap, id: ObjId, temp_base: ObjId) -> VmResult<WireObject> {
    let obj = heap.get(id)?;
    let conv = |vs: &[Value]| -> VmResult<Vec<CapturedValue>> {
        vs.iter()
            .map(|v| {
                Ok(match v {
                    Value::Ref(r) => match heap.get(*r)?.home_id() {
                        Some(h) => CapturedValue::HomeRef(h),
                        None => CapturedValue::HomeRef(temp_base + r),
                    },
                    other => CapturedValue::from_value(*other),
                })
            })
            .collect()
    };
    let body = match &obj.kind {
        ObjKind::Obj { class, fields } => WireObjBody::Obj {
            class: class.to_string(),
            fields: conv(fields)?,
        },
        ObjKind::Arr { elems } => WireObjBody::Arr {
            elems: conv(elems)?,
        },
        ObjKind::Str(s) => WireObjBody::Str(s.clone()),
        ObjKind::Exception { message, .. } => WireObjBody::Str(message.clone()),
    };
    let home_id = obj.home_id().unwrap_or(temp_base + id);
    Ok(WireObject { home_id, body })
}

/// Serialized size of a [`crate::heap::HeapObj`] as shipped (for cost models that need a
/// size without building the message).
pub fn object_wire_bytes(heap: &Heap, id: ObjId) -> VmResult<u64> {
    Ok(extract_object(heap, id)?.wire_bytes())
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

fn put_instr<B: BufMut>(buf: &mut B, i: &Instr) {
    use Instr::*;
    let cmp_code = |c: &Cmp| -> u8 {
        match c {
            Cmp::Eq => 0,
            Cmp::Ne => 1,
            Cmp::Lt => 2,
            Cmp::Le => 3,
            Cmp::Gt => 4,
            Cmp::Ge => 5,
        }
    };
    match i {
        PushI(v) => {
            buf.put_u8(0);
            buf.put_i64_le(*v);
        }
        PushF(v) => {
            buf.put_u8(1);
            buf.put_u64_le(v.to_bits());
        }
        PushStr(p) => {
            buf.put_u8(2);
            buf.put_u16_le(*p);
        }
        PushNull => buf.put_u8(3),
        Load(s) => {
            buf.put_u8(4);
            buf.put_u16_le(*s);
        }
        Store(s) => {
            buf.put_u8(5);
            buf.put_u16_le(*s);
        }
        Dup => buf.put_u8(6),
        Pop => buf.put_u8(7),
        Swap => buf.put_u8(8),
        Add => buf.put_u8(9),
        Sub => buf.put_u8(10),
        Mul => buf.put_u8(11),
        Div => buf.put_u8(12),
        Rem => buf.put_u8(13),
        Neg => buf.put_u8(14),
        Shl => buf.put_u8(15),
        Shr => buf.put_u8(16),
        BAnd => buf.put_u8(17),
        BOr => buf.put_u8(18),
        BXor => buf.put_u8(19),
        I2F => buf.put_u8(20),
        F2I => buf.put_u8(21),
        If(c, t) => {
            buf.put_u8(22);
            buf.put_u8(cmp_code(c));
            buf.put_u32_le(*t);
        }
        IfZ(c, t) => {
            buf.put_u8(23);
            buf.put_u8(cmp_code(c));
            buf.put_u32_le(*t);
        }
        IfNull(t) => {
            buf.put_u8(24);
            buf.put_u32_le(*t);
        }
        IfNonNull(t) => {
            buf.put_u8(25);
            buf.put_u32_le(*t);
        }
        Goto(t) => {
            buf.put_u8(26);
            buf.put_u32_le(*t);
        }
        Switch(s) => {
            buf.put_u8(27);
            buf.put_u16_le(*s);
        }
        New(c) => {
            buf.put_u8(28);
            buf.put_u16_le(*c);
        }
        GetField(f) => {
            buf.put_u8(29);
            buf.put_u16_le(*f);
        }
        PutField(f) => {
            buf.put_u8(30);
            buf.put_u16_le(*f);
        }
        GetStatic(c, f) => {
            buf.put_u8(31);
            buf.put_u16_le(*c);
            buf.put_u16_le(*f);
        }
        PutStatic(c, f) => {
            buf.put_u8(32);
            buf.put_u16_le(*c);
            buf.put_u16_le(*f);
        }
        NewArr => buf.put_u8(33),
        ALoad => buf.put_u8(34),
        AStore => buf.put_u8(35),
        ArrLen => buf.put_u8(36),
        InvokeStatic(c, m, n) => {
            buf.put_u8(37);
            buf.put_u16_le(*c);
            buf.put_u16_le(*m);
            buf.put_u8(*n);
        }
        InvokeVirtual(m, n) => {
            buf.put_u8(38);
            buf.put_u16_le(*m);
            buf.put_u8(*n);
        }
        Ret => buf.put_u8(39),
        RetV => buf.put_u8(40),
        ThrowKind(k) => {
            buf.put_u8(41);
            buf.put_u16_le(k.code());
        }
        Throw => buf.put_u8(42),
        NativeCall(n, a) => {
            buf.put_u8(43);
            buf.put_u16_le(*n);
            buf.put_u8(*a);
        }
        ReadCaptured(s) => {
            buf.put_u8(44);
            buf.put_u16_le(*s);
        }
        ReadCapturedPc => buf.put_u8(45),
        BringObjLocal(s) => {
            buf.put_u8(46);
            buf.put_u16_le(*s);
        }
        BringObjField(b, f) => {
            buf.put_u8(47);
            buf.put_u16_le(*b);
            buf.put_u16_le(*f);
        }
        BringObjStaticTo(c, f, d) => {
            buf.put_u8(48);
            buf.put_u16_le(*c);
            buf.put_u16_le(*f);
            buf.put_u16_le(*d);
        }
        BringObjElemTo(b, x, d) => {
            buf.put_u8(49);
            buf.put_u16_le(*b);
            buf.put_u16_le(*x);
            buf.put_u16_le(*d);
        }
        RethrowAppNpe => buf.put_u8(50),
        Nop => buf.put_u8(51),
        CheckStatus(d) => {
            buf.put_u8(52);
            buf.put_u8(*d);
        }
        RestoreLocal(s) => {
            buf.put_u8(53);
            buf.put_u16_le(*s);
        }
    }
}

fn get_cmp(buf: &mut Bytes) -> VmResult<Cmp> {
    Ok(match get_u8(buf)? {
        0 => Cmp::Eq,
        1 => Cmp::Ne,
        2 => Cmp::Lt,
        3 => Cmp::Le,
        4 => Cmp::Gt,
        5 => Cmp::Ge,
        _ => return Err(VmError::Decode("bad Cmp")),
    })
}

fn get_instr(buf: &mut Bytes) -> VmResult<Instr> {
    use Instr::*;
    Ok(match get_u8(buf)? {
        0 => PushI(get_i64(buf)?),
        1 => PushF(get_f64(buf)?),
        2 => PushStr(get_u16(buf)?),
        3 => PushNull,
        4 => Load(get_u16(buf)?),
        5 => Store(get_u16(buf)?),
        6 => Dup,
        7 => Pop,
        8 => Swap,
        9 => Add,
        10 => Sub,
        11 => Mul,
        12 => Div,
        13 => Rem,
        14 => Neg,
        15 => Shl,
        16 => Shr,
        17 => BAnd,
        18 => BOr,
        19 => BXor,
        20 => I2F,
        21 => F2I,
        22 => If(get_cmp(buf)?, get_u32(buf)?),
        23 => IfZ(get_cmp(buf)?, get_u32(buf)?),
        24 => IfNull(get_u32(buf)?),
        25 => IfNonNull(get_u32(buf)?),
        26 => Goto(get_u32(buf)?),
        27 => Switch(get_u16(buf)?),
        28 => New(get_u16(buf)?),
        29 => GetField(get_u16(buf)?),
        30 => PutField(get_u16(buf)?),
        31 => GetStatic(get_u16(buf)?, get_u16(buf)?),
        32 => PutStatic(get_u16(buf)?, get_u16(buf)?),
        33 => NewArr,
        34 => ALoad,
        35 => AStore,
        36 => ArrLen,
        37 => InvokeStatic(get_u16(buf)?, get_u16(buf)?, get_u8(buf)?),
        38 => InvokeVirtual(get_u16(buf)?, get_u8(buf)?),
        39 => Ret,
        40 => RetV,
        41 => ThrowKind(ExKind::from_code(get_u16(buf)?)),
        42 => Throw,
        43 => NativeCall(get_u16(buf)?, get_u8(buf)?),
        44 => ReadCaptured(get_u16(buf)?),
        45 => ReadCapturedPc,
        46 => BringObjLocal(get_u16(buf)?),
        47 => BringObjField(get_u16(buf)?, get_u16(buf)?),
        48 => BringObjStaticTo(get_u16(buf)?, get_u16(buf)?, get_u16(buf)?),
        49 => BringObjElemTo(get_u16(buf)?, get_u16(buf)?, get_u16(buf)?),
        50 => RethrowAppNpe,
        51 => Nop,
        52 => CheckStatus(get_u8(buf)?),
        53 => RestoreLocal(get_u16(buf)?),
        _ => return Err(VmError::Decode("bad opcode")),
    })
}

// ---------------------------------------------------------------------------
// Classes
// ---------------------------------------------------------------------------

fn type_code(t: TypeOf) -> u8 {
    match t {
        TypeOf::Int => 0,
        TypeOf::Num => 1,
        TypeOf::Ref => 2,
    }
}

fn get_type(buf: &mut Bytes) -> VmResult<TypeOf> {
    Ok(match get_u8(buf)? {
        0 => TypeOf::Int,
        1 => TypeOf::Num,
        2 => TypeOf::Ref,
        _ => return Err(VmError::Decode("bad TypeOf")),
    })
}

fn put_class<B: BufMut>(buf: &mut B, c: &ClassDef) -> VmResult<()> {
    put_str(buf, &c.name)?;
    buf.put_u32_le(seq_len32(c.pool.len(), "constant pool exceeds u32 prefix")?);
    for s in &c.pool {
        put_str(buf, s)?;
    }
    buf.put_u32_le(seq_len32(c.fields.len(), "field count exceeds u32 prefix")?);
    for f in &c.fields {
        put_str(buf, &f.name)?;
        buf.put_u8(type_code(f.ty));
        buf.put_u8(f.is_static as u8);
    }
    buf.put_u32_le(seq_len32(
        c.methods.len(),
        "method count exceeds u32 prefix",
    )?);
    for m in &c.methods {
        put_str(buf, &m.name)?;
        buf.put_u16_le(m.nargs);
        buf.put_u16_le(m.nlocals);
        buf.put_u32_le(seq_len32(m.code.len(), "code length exceeds u32 prefix")?);
        for i in &m.code {
            put_instr(buf, i);
        }
        for l in &m.lines {
            buf.put_u32_le(*l);
        }
        buf.put_u32_le(seq_len32(
            m.ex_table.len(),
            "exception table exceeds u32 prefix",
        )?);
        for e in &m.ex_table {
            buf.put_u32_le(e.from);
            buf.put_u32_le(e.to);
            buf.put_u32_le(e.target);
            buf.put_u16_le(e.kind.code());
            buf.put_u8(e.fault_handler as u8);
        }
        buf.put_u32_le(seq_len32(
            m.switches.len(),
            "switch count exceeds u32 prefix",
        )?);
        for s in &m.switches {
            buf.put_u32_le(seq_len32(s.pairs.len(), "switch pairs exceed u32 prefix")?);
            for (k, t) in &s.pairs {
                buf.put_i64_le(*k);
                buf.put_u32_le(*t);
            }
            buf.put_u32_le(s.default);
        }
    }
    Ok(())
}

/// Encode a class definition (the "class file" that code shipping moves).
pub fn encode_class(c: &ClassDef) -> VmResult<Bytes> {
    let mut buf = BytesMut::with_capacity(class_wire_bytes(c) as usize);
    put_class(&mut buf, c)?;
    Ok(buf.freeze())
}

/// Encode a class definition into a pooled buffer.
pub fn encode_class_pooled(pool: &BufferPool, c: &ClassDef) -> VmResult<Bytes> {
    let mut buf = pool.checkout();
    put_class(&mut buf, c)?;
    Ok(buf.freeze())
}

/// Decode a class definition.
pub fn decode_class(mut buf: Bytes) -> VmResult<ClassDef> {
    let name = get_str(&mut buf)?;
    let npool = get_u32(&mut buf)? as usize;
    ensure_seq(&buf, npool, 4, "pool count overruns buffer")?;
    let mut pool = Vec::with_capacity(npool);
    for _ in 0..npool {
        pool.push(get_str(&mut buf)?);
    }
    let nfields = get_u32(&mut buf)? as usize;
    ensure_seq(&buf, nfields, 6, "field count overruns buffer")?;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let name = get_str(&mut buf)?;
        let ty = get_type(&mut buf)?;
        let is_static = get_u8(&mut buf)? != 0;
        fields.push(FieldDef {
            name,
            ty,
            is_static,
        });
    }
    let nmethods = get_u32(&mut buf)? as usize;
    ensure_seq(&buf, nmethods, 20, "method count overruns buffer")?;
    let mut methods = Vec::with_capacity(nmethods);
    for _ in 0..nmethods {
        let name = get_str(&mut buf)?;
        let nargs = get_u16(&mut buf)?;
        let nlocals = get_u16(&mut buf)?;
        let ncode = get_u32(&mut buf)? as usize;
        // Each instruction is at least 1 byte and is followed by a 4-byte
        // line entry, so the method body needs at least 5 bytes per pc.
        ensure_seq(&buf, ncode, 5, "code length overruns buffer")?;
        let mut code = Vec::with_capacity(ncode);
        for _ in 0..ncode {
            code.push(get_instr(&mut buf)?);
        }
        let mut lines = Vec::with_capacity(ncode);
        for _ in 0..ncode {
            lines.push(get_u32(&mut buf)?);
        }
        let nex = get_u32(&mut buf)? as usize;
        ensure_seq(&buf, nex, 15, "exception table overruns buffer")?;
        let mut ex_table = Vec::with_capacity(nex);
        for _ in 0..nex {
            let from = get_u32(&mut buf)?;
            let to = get_u32(&mut buf)?;
            let target = get_u32(&mut buf)?;
            let kind = ExKind::from_code(get_u16(&mut buf)?);
            let fault_handler = get_u8(&mut buf)? != 0;
            ex_table.push(ExEntry {
                from,
                to,
                target,
                kind,
                fault_handler,
            });
        }
        let nsw = get_u32(&mut buf)? as usize;
        ensure_seq(&buf, nsw, 8, "switch count overruns buffer")?;
        let mut switches = Vec::with_capacity(nsw);
        for _ in 0..nsw {
            let npairs = get_u32(&mut buf)? as usize;
            ensure_seq(&buf, npairs, 12, "switch pairs overrun buffer")?;
            let mut pairs = Vec::with_capacity(npairs);
            for _ in 0..npairs {
                let k = get_i64(&mut buf)?;
                let t = get_u32(&mut buf)?;
                pairs.push((k, t));
            }
            let default = get_u32(&mut buf)?;
            switches.push(SwitchTable { pairs, default });
        }
        methods.push(MethodDef {
            name,
            nargs,
            nlocals,
            code,
            lines,
            ex_table,
            switches,
        });
    }
    Ok(ClassDef {
        name,
        fields,
        methods,
        pool,
    })
}

/// Serialized size of a class, used for code-shipping transfer costs.
/// Streams through [`CountBuf`] — no allocation. A class whose lengths
/// overflow their prefix widths is unencodable (`encode_class` rejects it
/// before anything ships), so the partial count returned for such a class
/// is never used as a transfer size.
pub fn class_wire_bytes(c: &ClassDef) -> u64 {
    let mut counter = CountBuf::default();
    let _ = put_class(&mut counter, c);
    counter.count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::FieldDef;

    fn sample_class() -> ClassDef {
        let mut c = ClassDef::new("Geometry")
            .with_field(FieldDef::instance("r", TypeOf::Ref))
            .with_field(FieldDef::stat("count", TypeOf::Int));
        let r = c.intern("r");
        c.methods.push(
            MethodDef::new("displaceX", 1, 2)
                .with_code(
                    vec![
                        Instr::Load(0),
                        Instr::GetField(r),
                        Instr::Store(1),
                        Instr::PushI(3),
                        Instr::Switch(0),
                        Instr::Ret,
                    ],
                    vec![1, 1, 1, 2, 2, 3],
                )
                .with_ex_table(vec![
                    ExEntry::new(0, 3, 5, ExKind::NullPointer).as_fault_handler()
                ])
                .with_switches(vec![SwitchTable {
                    pairs: vec![(0, 0), (3, 3)],
                    default: 5,
                }]),
        );
        c
    }

    fn sample_state() -> CapturedState {
        CapturedState {
            frames: vec![
                CapturedFrame {
                    class: "Main".into(),
                    method: "main".into(),
                    pc: 5,
                    locals: vec![CapturedValue::Int(-3), CapturedValue::HomeRef(12)],
                },
                CapturedFrame {
                    class: "Main".into(),
                    method: "f".into(),
                    pc: 2,
                    locals: vec![CapturedValue::Num(2.5), CapturedValue::Null],
                },
            ],
            statics: vec![CapturedStatics {
                class: "Main".into(),
                values: vec![CapturedValue::Int(77)],
            }],
        }
    }

    #[test]
    fn class_roundtrip() {
        let c = sample_class();
        let encoded = encode_class(&c).unwrap();
        let decoded = decode_class(encoded).unwrap();
        assert_eq!(c, decoded);
    }

    #[test]
    fn state_roundtrip() {
        let state = sample_state();
        let decoded = decode_state(encode_state(&state).unwrap()).unwrap();
        assert_eq!(state, decoded);
    }

    #[test]
    fn frame_length_is_the_byte_metric() {
        let state = sample_state();
        assert_eq!(
            encode_state(&state).unwrap().len() as u64,
            state.wire_bytes()
        );
        let c = sample_class();
        assert_eq!(encode_class(&c).unwrap().len() as u64, class_wire_bytes(&c));
        let obj = WireObject {
            home_id: 7,
            body: WireObjBody::Obj {
                class: "Point".into(),
                fields: vec![CapturedValue::Int(1), CapturedValue::Null],
            },
        };
        assert_eq!(encode_object(&obj).unwrap().len() as u64, obj.wire_bytes());
    }

    #[test]
    fn object_roundtrip() {
        for obj in [
            WireObject {
                home_id: 7,
                body: WireObjBody::Obj {
                    class: "Point".into(),
                    fields: vec![CapturedValue::Int(1), CapturedValue::HomeRef(3)],
                },
            },
            WireObject {
                home_id: 8,
                body: WireObjBody::Arr {
                    elems: vec![CapturedValue::Num(0.5); 4],
                },
            },
            WireObject {
                home_id: 9,
                body: WireObjBody::Str("hello".into()),
            },
        ] {
            let decoded = decode_object(encode_object(&obj).unwrap()).unwrap();
            assert_eq!(obj, decoded);
        }
    }

    #[test]
    fn all_instrs_roundtrip() {
        use Instr::*;
        let all = vec![
            PushI(i64::MIN),
            PushF(-0.0),
            PushStr(9),
            PushNull,
            Load(1),
            Store(2),
            Dup,
            Pop,
            Swap,
            Add,
            Sub,
            Mul,
            Div,
            Rem,
            Neg,
            Shl,
            Shr,
            BAnd,
            BOr,
            BXor,
            I2F,
            F2I,
            If(Cmp::Le, 77),
            IfZ(Cmp::Gt, 3),
            IfNull(4),
            IfNonNull(5),
            Goto(6),
            Switch(0),
            New(1),
            GetField(2),
            PutField(3),
            GetStatic(4, 5),
            PutStatic(6, 7),
            NewArr,
            ALoad,
            AStore,
            ArrLen,
            InvokeStatic(1, 2, 3),
            InvokeVirtual(4, 5),
            Ret,
            RetV,
            ThrowKind(ExKind::OutOfMemory),
            Throw,
            NativeCall(8, 2),
            ReadCaptured(3),
            ReadCapturedPc,
            BringObjLocal(1),
            BringObjField(2, 3),
            BringObjStaticTo(4, 5, 6),
            BringObjElemTo(7, 8, 9),
            RethrowAppNpe,
            Nop,
            CheckStatus(1),
            RestoreLocal(2),
        ];
        let mut buf = BytesMut::new();
        for i in &all {
            put_instr(&mut buf, i);
        }
        let mut bytes = buf.freeze();
        for expect in &all {
            let got = get_instr(&mut bytes).unwrap();
            assert_eq!(&got, expect);
        }
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors() {
        let c = sample_class();
        let encoded = encode_class(&c).unwrap();
        for cut in 1..encoded.len() {
            assert!(
                decode_class(encoded.slice(0..encoded.len() - cut)).is_err(),
                "truncation at {cut} must error"
            );
        }
        assert!(decode_state(Bytes::from_static(&[1, 2])).is_err());
        assert!(decode_object(Bytes::from_static(&[0])).is_err());
    }

    #[test]
    fn state_header_is_validated() {
        let state = sample_state();
        let good = encode_state(&state).unwrap();
        // Corrupt the magic word.
        let mut bad = good.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("bad state magic"))
        );
        // Corrupt the frame kind.
        let mut bad = good.to_vec();
        bad[4] = 9;
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("bad state frame kind"))
        );
    }

    /// Adversarial length prefixes must be rejected *before* any allocation
    /// proportional to the declared count happens.
    #[test]
    fn oversized_counts_rejected_without_allocation() {
        // State claiming u32::MAX frames in a 16-byte message.
        let mut b = BytesMut::new();
        b.put_u32_le(STATE_MAGIC);
        b.put_u32_le(KIND_STATE);
        b.put_u32_le(u32::MAX);
        b.put_u32_le(0);
        assert_eq!(
            decode_state(b.freeze()),
            Err(VmError::Decode("frame count overruns buffer"))
        );

        // Array object claiming u32::MAX elements with an empty body.
        let mut b = BytesMut::new();
        b.put_u64_le(1);
        b.put_u8(1); // Arr tag
        b.put_u32_le(u32::MAX);
        assert_eq!(
            decode_object(b.freeze()),
            Err(VmError::Decode("value count overruns buffer"))
        );

        // Class claiming a huge constant pool.
        let mut b = BytesMut::new();
        b.put_u32_le(1);
        b.put_slice(b"C");
        b.put_u32_le(u32::MAX);
        assert_eq!(
            decode_class(b.freeze()),
            Err(VmError::Decode("pool count overruns buffer"))
        );

        // Method body claiming a huge instruction count.
        let mut b = BytesMut::new();
        b.put_u32_le(1);
        b.put_slice(b"C");
        b.put_u32_le(0); // pool
        b.put_u32_le(0); // fields
        b.put_u32_le(1); // one method
        b.put_u32_le(1);
        b.put_slice(b"m");
        b.put_u16_le(0);
        b.put_u16_le(0);
        b.put_u32_le(u32::MAX); // ncode
        b.put_slice(&[0; 7]); // pad past the min-method-size guard
        assert_eq!(
            decode_class(b.freeze()),
            Err(VmError::Decode("code length overruns buffer"))
        );

        // Oversized string length inside an object payload.
        let mut b = BytesMut::new();
        b.put_u64_le(1);
        b.put_u8(2); // Str tag
        b.put_u32_le(u32::MAX);
        assert_eq!(
            decode_object(b.freeze()),
            Err(VmError::Decode("string truncated"))
        );
    }

    #[test]
    fn oversize_names_are_typed_encode_errors() {
        // State-frame names carry a u16 prefix: 65536 bytes cannot encode.
        let state = CapturedState {
            frames: vec![CapturedFrame {
                class: "x".repeat(1 << 16),
                method: "m".into(),
                pc: 0,
                locals: vec![],
            }],
            statics: vec![],
        };
        assert_eq!(
            encode_state(&state),
            Err(VmError::Encode("name exceeds u16 length prefix"))
        );
        // Statics value sequences carry a u16 prefix.
        let state = CapturedState {
            frames: vec![],
            statics: vec![CapturedStatics {
                class: "C".into(),
                values: vec![CapturedValue::Null; 1 << 16],
            }],
        };
        assert_eq!(
            encode_state(&state),
            Err(VmError::Encode("value sequence exceeds u16 prefix"))
        );
    }

    #[test]
    fn frame_batch_roundtrip_and_payload_metric() {
        let c = sample_class();
        let state = sample_state();
        let mut batch = FrameBatch::new();
        batch.push(encode_class(&c).unwrap());
        batch.push(encode_state(&state).unwrap());
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.payload_bytes(),
            class_wire_bytes(&c) + state.wire_bytes()
        );
        let delivered = batch.encode().unwrap();
        // Framing overhead: u32 count + u32 per frame.
        assert_eq!(delivered.len() as u64, 4 + 8 + batch.payload_bytes());
        let back = FrameBatch::decode(delivered).unwrap();
        assert_eq!(back, batch);
        assert_eq!(decode_class(back.frames()[0].clone()).unwrap(), c);
        assert_eq!(decode_state(back.frames()[1].clone()).unwrap(), state);

        // Corrupt batch counts are rejected before allocation.
        let mut b = BytesMut::new();
        b.put_u32_le(u32::MAX);
        assert_eq!(
            FrameBatch::decode(b.freeze()),
            Err(VmError::Decode("frame batch count overruns buffer"))
        );
    }

    #[test]
    fn buffer_pool_recycles_last_owner() {
        let pool = BufferPool::new();
        let state = sample_state();
        let frame = encode_state_pooled(&pool, &state).unwrap();
        assert_eq!(pool.idle(), 0);
        let cheap = frame.clone();
        assert!(!pool.recycle(frame), "clone in flight blocks reclaim");
        assert_eq!(decode_state(cheap.clone()).unwrap(), state);
        assert!(pool.recycle(cheap), "last owner reclaims");
        assert_eq!(pool.idle(), 1);
        // The recycled buffer is reused, cleared.
        let again = encode_state_pooled(&pool, &state).unwrap();
        assert_eq!(pool.idle(), 0);
        assert_eq!(again.len() as u64, state.wire_bytes());
    }

    #[test]
    fn wire_size_reflects_instrumentation_growth() {
        let plain = sample_class();
        let mut fat = plain.clone();
        let m = &mut fat.methods[0];
        for _ in 0..10 {
            m.code.push(Instr::Nop);
            m.lines.push(9);
        }
        assert!(class_wire_bytes(&fat) > class_wire_bytes(&plain));
    }
}
