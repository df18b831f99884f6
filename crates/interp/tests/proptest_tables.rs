//! Model-based tests for the interpreter's two name tables: the object
//! property map (`heap::OrderedMap`) and the scope bindings
//! (`env::Scope`). Random operation sequences run against a plain
//! reference model. Key pools range from 1 to 24 names, so the tables
//! are driven both below and above the size at which they switch from
//! scanning to a hash index.

use aji_interp::env::{Scope, ScopeKind};
use aji_interp::heap::{OrderedMap, Prop, PropValue};
use aji_interp::Value;
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A property as the model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MProp {
    Data(f64, bool),
    Accessor(bool),
}

impl MProp {
    fn of(p: &Prop) -> MProp {
        match &p.value {
            PropValue::Data(Value::Num(n)) => MProp::Data(*n, p.enumerable),
            PropValue::Data(v) => panic!("the model only stores numbers, got {v:?}"),
            PropValue::Accessor { .. } => MProp::Accessor(p.enumerable),
        }
    }

    fn to_prop(self) -> Prop {
        match self {
            MProp::Data(n, enumerable) => Prop {
                value: PropValue::Data(Value::Num(n)),
                enumerable,
            },
            MProp::Accessor(enumerable) => Prop {
                value: PropValue::Accessor {
                    get: None,
                    set: None,
                },
                enumerable,
            },
        }
    }
}

/// Reference property map: slots in insertion order (tombstones kept,
/// as in the real map, so slot numbers can be compared) and a sorted
/// key → live slot map.
#[derive(Default)]
struct MapModel {
    slots: Vec<(String, Option<MProp>)>,
    live: BTreeMap<String, usize>,
}

impl MapModel {
    fn get(&self, key: &str) -> Option<MProp> {
        self.live.get(key).and_then(|&i| self.slots[i].1)
    }

    fn insert(&mut self, key: &str, p: MProp) {
        match self.live.get(key) {
            Some(&i) => self.slots[i].1 = Some(p),
            None => {
                self.live.insert(key.to_string(), self.slots.len());
                self.slots.push((key.to_string(), Some(p)));
            }
        }
    }

    fn remove(&mut self, key: &str) -> bool {
        match self.live.remove(key) {
            Some(i) => {
                self.slots[i].1 = None;
                true
            }
            None => false,
        }
    }

    fn replace_data_at(&mut self, slot: usize, key: &str, n: f64) -> bool {
        match self.slots.get_mut(slot) {
            Some((k, Some(MProp::Data(..)))) if k == key => {
                self.slots[slot].1 = Some(MProp::Data(n, true));
                true
            }
            _ => false,
        }
    }

    fn order(&self) -> Vec<(String, MProp)> {
        let live = self
            .slots
            .iter()
            .filter_map(|(k, p)| p.map(|p| (k.clone(), p)));
        live.collect()
    }
}

fn pool(tc: &mut TestCase) -> Vec<String> {
    let n = tc.int_in(1usize..25);
    (0..n).map(|i| format!("k{i}")).collect()
}

/// Every observation the public API offers agrees with the model.
fn check_map(m: &OrderedMap, model: &MapModel, keys: &[String]) -> Result<(), String> {
    prop_assert_eq!(m.len(), model.live.len());
    prop_assert_eq!(m.is_empty(), model.live.is_empty());
    for k in keys {
        prop_assert_eq!(m.get(k).map(MProp::of), model.get(k), "get({})", k);
        prop_assert_eq!(m.contains(k), model.get(k).is_some(), "contains({})", k);
        let fill = m.slot_and_prop(k).map(|(i, p)| (i, MProp::of(p)));
        let expected = model
            .live
            .get(k.as_str())
            .map(|&i| (i, model.get(k).unwrap()));
        prop_assert_eq!(fill, expected, "slot_and_prop({})", k);
    }
    let order: Vec<(String, MProp)> = m
        .iter()
        .map(|(k, p)| (k.to_string(), MProp::of(p)))
        .collect();
    prop_assert_eq!(order, model.order());
    let keys_now: Vec<String> = m.keys().iter().map(|k| k.to_string()).collect();
    let expected: Vec<String> = model.order().into_iter().map(|(k, _)| k).collect();
    prop_assert_eq!(keys_now, expected);
    for (slot, (k, p)) in model.slots.iter().enumerate() {
        let at = m.entry_at(slot).map(|(k, p)| (k.to_string(), MProp::of(p)));
        prop_assert_eq!(at, p.map(|p| (k.clone(), p)), "entry_at({})", slot);
    }
    prop_assert!(m.entry_at(model.slots.len()).is_none());
    Ok(())
}

#[test]
fn ordered_map_matches_model() {
    property("ordered_map_matches_model").cases(200).run(|tc| {
        let keys = pool(tc);
        let mut m = OrderedMap::new();
        let mut model = MapModel::default();
        let steps = tc.int_in(0usize..120);
        for step in 0..steps {
            let key = tc.pick(&keys).clone();
            let n = step as f64;
            match tc.int_in(0u8..5) {
                0 | 1 => {
                    let p = MProp::Data(n, tc.bool());
                    m.insert(Rc::from(key.as_str()), p.to_prop());
                    model.insert(&key, p);
                }
                2 => {
                    let p = MProp::Accessor(tc.bool());
                    m.insert(Rc::from(key.as_str()), p.to_prop());
                    model.insert(&key, p);
                }
                3 => prop_assert_eq!(m.remove(&key), model.remove(&key), "remove({})", key),
                _ => {
                    // A cached slot may be stale: any slot, any key.
                    let slot = tc.int_in(0usize..model.slots.len() + 2);
                    let hit = m.replace_data_at(slot, &key, Value::Num(n));
                    let expected = model.replace_data_at(slot, &key, n);
                    prop_assert_eq!(hit, expected, "replace_data_at({}, {})", slot, key);
                }
            }
            check_map(&m, &model, &keys)?;
        }
        Ok(())
    });
}

#[test]
fn ordered_map_crosses_the_index_threshold_through_tombstones() {
    // One live key at a time: only deleted entries push the map past the
    // scan limit.
    let keys: Vec<String> = (0..3).map(|i| format!("k{i}")).collect();
    let mut m = OrderedMap::new();
    let mut model = MapModel::default();
    for round in 0..40 {
        let key = &keys[round % keys.len()];
        let p = MProp::Data(round as f64, true);
        m.insert(Rc::from(key.as_str()), p.to_prop());
        model.insert(key, p);
        check_map(&m, &model, &keys).unwrap();
        assert!(m.remove(key));
        model.remove(key);
        check_map(&m, &model, &keys).unwrap();
    }
    // Re-inserting after a delete appends at the end, as in JavaScript.
    for (i, key) in keys.iter().enumerate() {
        let p = MProp::Data(i as f64, true);
        m.insert(Rc::from(key.as_str()), p.to_prop());
        model.insert(key, p);
    }
    assert!(m.remove("k0"));
    model.remove("k0");
    m.insert(Rc::from("k0"), MProp::Data(9.0, true).to_prop());
    model.insert("k0", MProp::Data(9.0, true));
    check_map(&m, &model, &keys).unwrap();
    let order: Vec<String> = m.keys().iter().map(|k| k.to_string()).collect();
    assert_eq!(order, ["k1", "k2", "k0"]);
}

fn num(v: Option<Value>) -> Option<f64> {
    v.map(|v| match v {
        Value::Num(n) => n,
        other => panic!("the model only stores numbers, got {other:?}"),
    })
}

#[test]
fn scope_matches_model() {
    property("scope_matches_model").cases(200).run(|tc| {
        let keys = pool(tc);
        let scope = Scope::new(ScopeKind::Function, None);
        let mut model: BTreeMap<String, f64> = BTreeMap::new();
        let steps = tc.int_in(0usize..120);
        for step in 0..steps {
            let key = tc.pick(&keys).clone();
            let n = step as f64;
            if tc.bool() {
                scope.borrow_mut().declare(key.as_str(), Value::Num(n));
                model.insert(key, n);
            } else {
                let set = scope.borrow_mut().set_own(&key, Value::Num(n));
                prop_assert_eq!(set, model.contains_key(&key), "set_own({})", key);
                if let Some(v) = model.get_mut(&key) {
                    *v = n;
                }
            }
            let s = scope.borrow();
            for k in &keys {
                prop_assert_eq!(s.has_own(k), model.contains_key(k), "has_own({})", k);
                prop_assert_eq!(num(s.get_own(k)), model.get(k).copied(), "get_own({})", k);
            }
        }
        Ok(())
    });
}
