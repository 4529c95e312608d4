package app;

import stmt.Counter;
import stmt.Failure;
import stmt.Task;

public class Loops extends Counter {
    private Counter shared = new Counter(1);

    public Loops() { }

    public void run(Counter c) {
        count = 3;
        int seen = count;
        while (!c.done()) {
            c.add(-seen);
        }
        for (int i = 0; i < 3; i = i + 1) {
            shared.add(i);
        }
        if (seen > 2) {
            c.flag(!c.done());
        } else {
            c.add(this);
        }
        try {
            c.add(seen = 4);
        } finally {
            c.self().add(2);
        }
        Task anon = new Task() {
            public void run(Counter other) { other.add(5); }
        };
        Task typed = (Counter k) -> k.add(6);
        Gadget g = new Gadget();
        g.spin();
        Counter bad = new Counter(1, 2);
        throw new Failure(7);
    }
}
