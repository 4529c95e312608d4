package stmt;

public interface Task {
    void run(Counter c);
}
