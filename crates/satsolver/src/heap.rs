//! Indexed max-heap ordering variables by VSIDS activity.

/// A binary max-heap over variable indices keyed by an external activity
/// array, with `O(log n)` insertion, removal of the maximum and in-place
/// priority increase.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarOrder {
    /// Heap array of variable indices.
    heap: Vec<usize>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    position: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl VarOrder {
    /// Ensures `var` has a slot in the position table.
    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        if self.position.len() < num_vars {
            self.position.resize(num_vars, ABSENT);
        }
    }

    pub(crate) fn contains(&self, var: usize) -> bool {
        self.position.get(var).copied().unwrap_or(ABSENT) != ABSENT
    }

    /// Inserts `var` (no-op if already present).
    pub(crate) fn insert(&mut self, var: usize, activity: &[f64]) {
        self.grow_to(var + 1);
        if self.contains(var) {
            return;
        }
        self.position[var] = self.heap.len();
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the variable with the highest activity.
    pub(crate) fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("heap is non-empty");
        self.position[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the heap property after `var`'s activity increased.
    pub(crate) fn update(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            self.sift_up(self.position[var], activity);
        }
    }

    fn sift_up(&mut self, mut idx: usize, activity: &[f64]) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if activity[self.heap[idx]] > activity[self.heap[parent]] {
                self.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize, activity: &[f64]) {
        loop {
            let left = 2 * idx + 1;
            let right = 2 * idx + 2;
            let mut largest = idx;
            if left < self.heap.len() && activity[self.heap[left]] > activity[self.heap[largest]] {
                largest = left;
            }
            if right < self.heap.len() && activity[self.heap[right]] > activity[self.heap[largest]]
            {
                largest = right;
            }
            if largest == idx {
                break;
            }
            self.swap(idx, largest);
            idx = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a]] = a;
        self.position[self.heap[b]] = b;
    }

    /// The heap array, for state encoding.  The heap order (not only the
    /// membership) is part of the solver's deterministic behaviour:
    /// equal-activity variables pop in heap order, so a restored solver
    /// must reproduce the array verbatim.
    pub(crate) fn heap(&self) -> &[usize] {
        &self.heap
    }

    /// Rebuilds a heap over `num_vars` variables from an array produced by
    /// [`VarOrder::heap`]; the position table is derived from it.
    ///
    /// Returns `None` if an entry is out of range or repeated, so corrupt
    /// state surfaces as an error instead of breaking the heap silently.
    pub(crate) fn from_heap(heap: Vec<usize>, num_vars: usize) -> Option<Self> {
        let mut position = vec![ABSENT; num_vars];
        for (idx, &var) in heap.iter().enumerate() {
            match position.get_mut(var) {
                Some(slot) if *slot == ABSENT => *slot = idx,
                _ => return None,
            }
        }
        Some(VarOrder { heap, position })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut order = VarOrder::default();
        for v in 0..4 {
            order.insert(v, &activity);
        }
        assert_eq!(order.pop_max(&activity), Some(1));
        assert_eq!(order.pop_max(&activity), Some(3));
        assert_eq!(order.pop_max(&activity), Some(2));
        assert_eq!(order.pop_max(&activity), Some(0));
        assert_eq!(order.pop_max(&activity), None);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let activity = vec![1.0, 2.0];
        let mut order = VarOrder::default();
        order.insert(0, &activity);
        order.insert(0, &activity);
        order.insert(1, &activity);
        assert_eq!(order.pop_max(&activity), Some(1));
        assert_eq!(order.pop_max(&activity), Some(0));
        assert_eq!(order.pop_max(&activity), None);
    }

    #[test]
    fn update_after_activity_bump() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut order = VarOrder::default();
        for v in 0..3 {
            order.insert(v, &activity);
        }
        activity[0] = 10.0;
        order.update(0, &activity);
        assert_eq!(order.pop_max(&activity), Some(0));
    }

    #[test]
    fn from_heap_derives_positions_and_rejects_bad_entries() {
        let activity = vec![1.0, 3.0, 2.0, 0.5];
        let mut order = VarOrder::default();
        for v in 0..4 {
            order.insert(v, &activity);
        }
        let _ = order.pop_max(&activity);
        let rebuilt = VarOrder::from_heap(order.heap().to_vec(), 4).expect("valid array");
        assert_eq!(rebuilt.position, order.position);
        assert!(VarOrder::from_heap(vec![0, 2, 0], 4).is_none(), "repeated");
        assert!(VarOrder::from_heap(vec![0, 4], 4).is_none(), "out of range");
    }
}
