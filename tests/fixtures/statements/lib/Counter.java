package stmt;

public class Counter {
    public int count;
    public Counter() { }
    public Counter(int start) { }
    public void add(int n) { }
    public void add(Counter other) { }
    public boolean done() { return false; }
    public void flag(boolean on) { }
    public Counter self() { return this; }
}
