//! Property tests for the wire codec: randomized classes, states, and
//! objects round-trip losslessly, the encoded frame length equals the
//! counted `*wire_bytes()` size (the encoder run against `CountBuf`) for
//! every sample, a [`FrameBatch`]'s payload metric is the sum of its
//! frames, and arbitrary byte garbage never panics the decoder.

use proptest::prelude::*;
use sod_vm::capture::{CapturedFrame, CapturedState, CapturedStatics, CapturedValue};
use sod_vm::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef};
use sod_vm::instr::{Cmp, Instr, SwitchTable};
use sod_vm::value::TypeOf;
use sod_vm::wire::{
    class_wire_bytes, decode_class, decode_object, decode_state, encode_class, encode_object,
    encode_state, FrameBatch, WireObjBody, WireObject,
};

fn captured_value() -> impl Strategy<Value = CapturedValue> {
    prop_oneof![
        Just(CapturedValue::Null),
        any::<i64>().prop_map(CapturedValue::Int),
        any::<i64>().prop_map(|b| CapturedValue::Num(b as f64 / 7.0)),
        (0u32..1_000_000).prop_map(CapturedValue::HomeRef),
    ]
}

fn instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        any::<i64>().prop_map(Instr::PushI),
        (0u16..64).prop_map(Instr::Load),
        (0u16..64).prop_map(Instr::Store),
        Just(Instr::Add),
        Just(Instr::Mul),
        (0u32..1000).prop_map(|t| Instr::If(Cmp::Le, t)),
        (0u16..32).prop_map(Instr::GetField),
        ((0u16..32), (0u16..32)).prop_map(|(c, m)| Instr::InvokeStatic(c, m, 2)),
        Just(Instr::RetV),
        (0u16..16).prop_map(Instr::BringObjLocal),
        (0u8..4).prop_map(Instr::CheckStatus),
        (0u16..16).prop_map(Instr::RestoreLocal),
    ]
}

fn class_def() -> impl Strategy<Value = ClassDef> {
    (
        "[A-Za-z][A-Za-z0-9]{0,12}",
        proptest::collection::vec(("[a-z][a-z0-9]{0,8}", any::<bool>()), 0..6),
        proptest::collection::vec(instr(), 1..40),
        proptest::collection::vec("[a-z]{1,10}".prop_map(String::from), 0..8),
    )
        .prop_map(|(name, fields, code, pool)| {
            let n = code.len();
            let mut c = ClassDef::new(name);
            for (fname, is_static) in fields {
                c.fields.push(FieldDef {
                    name: fname,
                    ty: TypeOf::Int,
                    is_static,
                });
            }
            c.pool = pool;
            let mut m = MethodDef::new("m", 1, 7);
            m.code = code;
            m.lines = (0..n as u32).map(|i| i / 3 + 1).collect();
            m.ex_table = vec![ExEntry::new(0, n as u32 / 2, 0, ExKind::NullPointer)];
            m.switches = vec![SwitchTable {
                pairs: vec![(1, 0), (9, 0)],
                default: 0,
            }];
            c.methods.push(m);
            c
        })
}

fn captured_state() -> impl Strategy<Value = CapturedState> {
    (
        proptest::collection::vec(
            (
                "[A-Z][a-z]{0,6}",
                "[a-z]{1,6}",
                0u32..500,
                proptest::collection::vec(captured_value(), 0..12),
            ),
            1..6,
        ),
        proptest::collection::vec(
            (
                "[A-Z][a-z]{0,6}",
                proptest::collection::vec(captured_value(), 0..6),
            ),
            0..3,
        ),
    )
        .prop_map(|(frames, statics)| CapturedState {
            frames: frames
                .into_iter()
                .map(|(class, method, pc, locals)| CapturedFrame {
                    class,
                    method,
                    pc,
                    locals,
                })
                .collect(),
            statics: statics
                .into_iter()
                .map(|(class, values)| CapturedStatics { class, values })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn class_roundtrip(c in class_def()) {
        let encoded = encode_class(&c).unwrap();
        // Encode-once contract: the frame length IS the byte metric.
        prop_assert_eq!(encoded.len() as u64, class_wire_bytes(&c));
        let decoded = decode_class(encoded).unwrap();
        prop_assert_eq!(c, decoded);
    }

    #[test]
    fn state_roundtrip(state in captured_state()) {
        let encoded = encode_state(&state).unwrap();
        // The counted size (`CountBuf`) equals the bytes actually written
        // (`BytesMut`) — no re-encoding at size queries.
        prop_assert_eq!(encoded.len() as u64, state.wire_bytes());
        let decoded = decode_state(encoded).unwrap();
        prop_assert_eq!(&state, &decoded);
    }

    #[test]
    fn object_roundtrip(
        home in 0u32..1_000_000,
        fields in proptest::collection::vec(captured_value(), 0..20),
        tag in 0u8..3,
    ) {
        let body = match tag {
            0 => WireObjBody::Obj { class: "C".into(), fields },
            1 => WireObjBody::Arr { elems: fields },
            _ => WireObjBody::Str("hello world".into()),
        };
        let obj = WireObject { home_id: home, body };
        let encoded = encode_object(&obj).unwrap();
        let decoded = decode_object(encoded).unwrap();
        prop_assert_eq!(obj, decoded);
    }

    /// A batch's payload metric equals the sum of its members' sizes.
    #[test]
    fn batched_frames_roundtrip(
        c in class_def(),
        state in captured_state(),
        home in 0u32..1_000_000,
    ) {
        let obj = WireObject { home_id: home, body: WireObjBody::Str("s".into()) };
        let obj_frame = encode_object(&obj).unwrap();
        let obj_bytes = obj_frame.len() as u64;
        let mut batch = FrameBatch::new();
        batch.push(encode_class(&c).unwrap());
        batch.push(encode_state(&state).unwrap());
        batch.push(obj_frame);
        prop_assert_eq!(
            batch.payload_bytes(),
            class_wire_bytes(&c) + state.wire_bytes() + obj_bytes
        );
    }

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let b = bytes::Bytes::from(bytes);
        let _ = decode_class(b.clone());
        let _ = decode_state(b.clone());
        let _ = decode_object(b);
    }

    #[test]
    fn truncation_of_valid_class_errors_not_panics(c in class_def(), cut in 1usize..32) {
        let encoded = encode_class(&c).unwrap();
        if encoded.len() > cut {
            let truncated = encoded.slice(0..encoded.len() - cut);
            prop_assert!(decode_class(truncated).is_err());
        }
    }

    #[test]
    fn truncation_of_valid_state_errors_not_panics(state in captured_state(), cut in 1usize..32) {
        let encoded = encode_state(&state).unwrap();
        if encoded.len() > cut {
            let truncated = encoded.slice(0..encoded.len() - cut);
            prop_assert!(decode_state(truncated).is_err());
        }
    }
}
