package client;

import java.awt.Point;

class Step {
    void increment() {
        Point.x++;
    }
}
